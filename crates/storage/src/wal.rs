//! Redo-only write-ahead log.
//!
//! The WAL carries *after-images* of every page a transaction dirtied,
//! followed by a commit record. Records are individually checksummed so a
//! torn tail (crash mid-append) is detected and discarded; everything before
//! the first bad record that belongs to a committed transaction is replayed.
//!
//! On-disk layout:
//!
//! ```text
//! magic "RCWL"
//! record := tag u8 | len u32 | payload | crc32(tag ‖ len ‖ payload) u32
//! tag 'P': payload = txn u64 | page u64 | PAGE_SIZE image bytes
//! tag 'C': payload = txn u64
//! ```
//!
//! Storage goes through the byte-level [`Backend`] abstraction so the same
//! code path serves files, in-memory buffers and the crash-injecting
//! simulator. Durability sites pass through [`crate::failpoint`] hooks.

use crate::backend::{Backend, FileBackend, MemBackend};
use crate::error::{Result, StorageError};
use crate::failpoint;
use crate::page::{crc32, PageId, PAGE_SIZE};
use rcmo_obs::wire::{Reader, Writer};
use std::collections::HashSet;
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"RCWL";

/// A raw page after-image carried by the log.
pub type PageImage = Vec<u8>;
const TAG_PAGE: u8 = b'P';
const TAG_COMMIT: u8 = b'C';

static WAL_QUARANTINED: rcmo_obs::LazyCounter =
    rcmo_obs::LazyCounter::new("storage.salvage.wal_quarantined.count");
static WAL_BAD_COMMIT: rcmo_obs::LazyCounter =
    rcmo_obs::LazyCounter::new("storage.salvage.wal_bad_commit.count");

/// A decoded WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// After-image of a page written by a transaction.
    PageImage {
        /// The writing transaction.
        txn: u64,
        /// The page the image belongs to.
        page: PageId,
        /// The sealed page image.
        image: Vec<u8>,
    },
    /// Transaction commit marker.
    Commit {
        /// The committing transaction.
        txn: u64,
    },
}

/// The write-ahead log over a byte-level [`Backend`].
///
/// Commit records must be strictly monotone in transaction id: the log
/// remembers the highest committed id, [`log_commit`](Self::log_commit) is
/// idempotent for a repeat of that id (a durability hook may already have
/// written it) and rejects anything lower, and replay treats a duplicate or
/// non-monotonic commit record as the end of the valid prefix rather than
/// silently applying it.
#[derive(Debug)]
pub struct Wal {
    backend: Box<dyn Backend>,
    /// Highest transaction id with a commit record in the log.
    last_commit_txn: Option<u64>,
}

impl Wal {
    /// Opens (or creates) a file-backed WAL at `path`. Errors with
    /// [`StorageError::BadHeader`] if the file exists but does not start
    /// with the WAL magic; see [`open_or_quarantine`](Self::open_or_quarantine)
    /// for the salvaging variant.
    pub fn open(path: &Path) -> Result<Self> {
        Self::from_backend_strict(Box::new(FileBackend::open(path)?))
    }

    /// Opens the WAL at `path`, quarantining it first if its header is
    /// unreadable: a log whose magic is damaged (e.g. a crash tore the very
    /// first write of a fresh log, or the file was corrupted at rest) is
    /// renamed aside to `<path>.corrupt-<k>` and a fresh log is started, so
    /// the database opens read-consistent instead of refusing to start.
    /// Returns the WAL and the quarantine path if one was created.
    pub fn open_or_quarantine(path: &Path) -> Result<(Self, Option<PathBuf>)> {
        let quarantined = if Self::header_is_bad(path)? {
            let aside = Self::quarantine_path(path);
            std::fs::rename(path, &aside)?;
            WAL_QUARANTINED.inc();
            Some(aside)
        } else {
            None
        };
        Ok((Self::open(path)?, quarantined))
    }

    /// `true` if the file at `path` exists, is non-empty, and does not
    /// start with the WAL magic.
    fn header_is_bad(path: &Path) -> Result<bool> {
        use std::io::Read;
        let mut file = match std::fs::File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(false),
            Err(e) => return Err(e.into()),
        };
        if file.metadata()?.len() == 0 {
            return Ok(false);
        }
        let mut magic = [0u8; 4];
        match file.read_exact(&mut magic) {
            Ok(()) => Ok(&magic != MAGIC),
            // Shorter than the magic: torn first write — quarantine.
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(true),
            Err(e) => Err(e.into()),
        }
    }

    fn quarantine_path(path: &Path) -> PathBuf {
        let mut k = 1u32;
        loop {
            let mut name = path.as_os_str().to_os_string();
            name.push(format!(".corrupt-{k}"));
            let candidate = PathBuf::from(name);
            if !candidate.exists() {
                return candidate;
            }
            k += 1;
        }
    }

    /// Creates an in-memory WAL.
    pub fn in_memory() -> Self {
        let mut backend = MemBackend::new();
        backend
            .write_at(0, MAGIC)
            .expect("in-memory write cannot fail");
        Wal {
            backend: Box::new(backend),
            last_commit_txn: None,
        }
    }

    /// Opens a WAL over an arbitrary backend. A damaged header is salvaged
    /// in place: the log is reset to just the magic (there is no file to
    /// rename aside) and the quarantine counter is bumped.
    pub fn from_backend(mut backend: Box<dyn Backend>) -> Result<Self> {
        if Self::backend_header_is_bad(backend.as_mut())? {
            backend.set_len(0)?;
            backend.write_at(0, MAGIC)?;
            backend.sync()?;
            WAL_QUARANTINED.inc();
        }
        Self::from_backend_strict(backend)
    }

    fn backend_header_is_bad(backend: &mut dyn Backend) -> Result<bool> {
        let len = backend.len()?;
        if len == 0 {
            return Ok(false);
        }
        if len < MAGIC.len() as u64 {
            return Ok(true);
        }
        let mut magic = [0u8; 4];
        backend.read_at(0, &mut magic)?;
        Ok(&magic != MAGIC)
    }

    fn from_backend_strict(mut backend: Box<dyn Backend>) -> Result<Self> {
        let len = backend.len()?;
        if len == 0 {
            backend.write_at(0, MAGIC)?;
            backend.sync()?;
        } else {
            if len < MAGIC.len() as u64 {
                return Err(StorageError::BadHeader("WAL magic mismatch".to_string()));
            }
            let mut magic = [0u8; 4];
            backend.read_at(0, &mut magic)?;
            if &magic != MAGIC {
                return Err(StorageError::BadHeader("WAL magic mismatch".to_string()));
            }
        }
        let mut wal = Wal {
            backend,
            last_commit_txn: None,
        };
        // Resume the monotonicity watermark from the valid record prefix.
        wal.last_commit_txn = wal
            .records()?
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .max();
        Ok(wal)
    }

    /// Direct access to the underlying backend — for tests and harnesses
    /// that need to tear or corrupt the raw log bytes.
    pub fn backend_mut(&mut self) -> &mut dyn Backend {
        self.backend.as_mut()
    }

    /// Starts a frame: its tag and payload length, with room for the
    /// `payload_len` payload bytes the caller writes next and the checksum.
    fn frame(tag: u8, payload_len: usize) -> Writer {
        let mut frame = Writer::with_capacity(payload_len + 9);
        frame.u8(tag);
        frame.u32(payload_len as u32);
        frame
    }

    /// Seals a frame from [`Self::frame`] with its checksum and appends it.
    fn append(&mut self, mut frame: Writer) -> Result<()> {
        failpoint::hit(failpoint::WAL_APPEND)?;
        let sum = crc32(frame.as_slice());
        frame.u32(sum);
        let end = self.backend.len()?;
        self.backend.write_at(end, frame.as_slice())
    }

    /// Appends a page after-image for `txn`.
    pub fn log_page(&mut self, txn: u64, page: PageId, image: &[u8; PAGE_SIZE]) -> Result<()> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.wal.append.us", rcmo_obs::bounds::LATENCY_US);
        let _t = LAT.start_timer();
        // One buffer for the whole frame: the image is copied once.
        let mut frame = Self::frame(TAG_PAGE, 16 + PAGE_SIZE);
        frame.u64(txn);
        frame.u64(page.0);
        frame.bytes(image);
        self.append(frame)
    }

    /// Appends a commit marker for `txn`.
    ///
    /// Idempotent for the most recently committed id (a crash-simulation
    /// hook may have logged it already); a commit for any *lower* id would
    /// break the log's monotonicity invariant and is rejected.
    pub fn log_commit(&mut self, txn: u64) -> Result<()> {
        if let Some(last) = self.last_commit_txn {
            if txn == last {
                return Ok(()); // already committed — idempotent
            }
            if txn < last {
                return Err(StorageError::Internal(format!(
                    "non-monotonic commit: txn {txn} after txn {last}"
                )));
            }
        }
        let mut frame = Self::frame(TAG_COMMIT, 8);
        frame.u64(txn);
        self.append(frame)?;
        self.last_commit_txn = Some(txn);
        Ok(())
    }

    /// Forces the log to stable storage.
    pub fn sync(&mut self) -> Result<()> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.wal.sync.us", rcmo_obs::bounds::LATENCY_US);
        failpoint::hit(failpoint::WAL_SYNC)?;
        let _t = LAT.start_timer();
        self.backend.sync()
    }

    /// Resets the log to just the magic (after a checkpoint has made all
    /// committed images durable in the data file).
    pub fn truncate(&mut self) -> Result<()> {
        failpoint::hit(failpoint::WAL_TRUNCATE)?;
        self.backend.set_len(MAGIC.len() as u64)?;
        self.last_commit_txn = None;
        self.backend.sync()
    }

    /// Byte length of the log (including the magic). Read-only: does not
    /// touch any write cursor.
    pub fn len(&self) -> Result<u64> {
        self.backend.len()
    }

    /// `true` if the log holds no records. Read-only.
    pub fn is_empty(&self) -> Result<bool> {
        Ok(self.len()? <= MAGIC.len() as u64)
    }

    /// Decodes all intact records, stopping silently at a torn tail. A
    /// duplicate or non-monotonic commit record also ends the valid prefix:
    /// a healthy log commits in strictly increasing transaction order, so
    /// anything else is damage and must not be replayed.
    pub fn records(&mut self) -> Result<Vec<WalRecord>> {
        let len = self.backend.len()?;
        let mut bytes = vec![0u8; len as usize];
        self.backend.read_at(0, &mut bytes)?;
        let mut r = Reader::new(&bytes);
        if r.magic(MAGIC).is_err() {
            return Err(StorageError::BadHeader("WAL magic mismatch".to_string()));
        }
        let mut records = Vec::new();
        let mut last_commit: Option<u64> = None;
        // Replay stops silently at the end or at a torn / corrupt frame.
        while let Some(record) = read_frame(&mut r) {
            if let WalRecord::Commit { txn } = record {
                if last_commit.is_some_and(|last| txn <= last) {
                    // Duplicate or out-of-order commit record: salvage
                    // the prefix before it, never apply it.
                    WAL_BAD_COMMIT.inc();
                    break;
                }
                last_commit = Some(txn);
            }
            records.push(record);
        }
        Ok(records)
    }

    /// Replay helper: returns the page images of *committed* transactions in
    /// log order, plus the set of committed transaction ids.
    #[allow(clippy::type_complexity)]
    pub fn committed_images(&mut self) -> Result<(Vec<(PageId, PageImage)>, HashSet<u64>)> {
        let records = self.records()?;
        let committed: HashSet<u64> = records
            .iter()
            .filter_map(|r| match r {
                WalRecord::Commit { txn } => Some(*txn),
                _ => None,
            })
            .collect();
        let images = records
            .into_iter()
            .filter_map(|r| match r {
                WalRecord::PageImage { txn, page, image } if committed.contains(&txn) => {
                    Some((page, image))
                }
                _ => None,
            })
            .collect();
        Ok((images, committed))
    }
}

/// Decodes the frame at `r`; `None` if it is torn, fails its checksum,
/// or does not hold a well-formed record.
fn read_frame(r: &mut Reader<'_>) -> Option<WalRecord> {
    let mut covered = r.clone();
    let tag = r.u8().ok()?;
    let payload = r.bytes32().ok()?;
    let stored = r.u32().ok()?;
    if crc32(covered.take(1 + 4 + payload.len()).ok()?) != stored {
        return None;
    }
    let mut p = Reader::new(payload);
    let record = match tag {
        TAG_PAGE => WalRecord::PageImage {
            txn: p.u64().ok()?,
            page: PageId(p.u64().ok()?),
            image: p.take(PAGE_SIZE).ok()?.to_vec(),
        },
        TAG_COMMIT => WalRecord::Commit { txn: p.u64().ok()? },
        _ => return None,
    };
    p.finish().ok()?;
    Some(record)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8) -> [u8; PAGE_SIZE] {
        [fill; PAGE_SIZE]
    }

    #[test]
    fn log_and_replay_committed_only() {
        let mut wal = Wal::in_memory();
        wal.log_page(1, PageId(3), &image(0xAA)).unwrap();
        wal.log_commit(1).unwrap();
        wal.log_page(2, PageId(4), &image(0xBB)).unwrap();
        // txn 2 never commits.
        let (images, committed) = wal.committed_images().unwrap();
        assert_eq!(committed.len(), 1);
        assert!(committed.contains(&1));
        assert_eq!(images.len(), 1);
        assert_eq!(images[0].0, PageId(3));
        assert!(images[0].1.iter().all(|&b| b == 0xAA));
    }

    #[test]
    fn torn_tail_is_discarded() {
        let mut wal = Wal::in_memory();
        wal.log_page(1, PageId(1), &image(1)).unwrap();
        wal.log_commit(1).unwrap();
        wal.log_page(2, PageId(2), &image(2)).unwrap();
        wal.log_commit(2).unwrap();
        let n = wal.len().unwrap();
        wal.backend_mut().set_len(n - 3).unwrap(); // rip the last commit record
        let (images, committed) = wal.committed_images().unwrap();
        assert!(committed.contains(&1));
        assert!(!committed.contains(&2));
        assert_eq!(images.len(), 1);
    }

    #[test]
    fn corrupt_middle_stops_replay() {
        let mut wal = Wal::in_memory();
        wal.log_page(1, PageId(1), &image(1)).unwrap();
        wal.log_commit(1).unwrap();
        wal.log_page(2, PageId(2), &image(2)).unwrap();
        wal.log_commit(2).unwrap();
        // Corrupt the first record.
        let mut b = [0u8; 1];
        wal.backend_mut().read_at(10, &mut b).unwrap();
        b[0] ^= 0xFF;
        wal.backend_mut().write_at(10, &b).unwrap();
        let (images, committed) = wal.committed_images().unwrap();
        assert!(images.is_empty());
        assert!(committed.is_empty());
    }

    #[test]
    fn truncate_resets() {
        let mut wal = Wal::in_memory();
        wal.log_commit(1).unwrap();
        assert!(!wal.is_empty().unwrap());
        wal.truncate().unwrap();
        assert!(wal.is_empty().unwrap());
        assert!(wal.records().unwrap().is_empty());
    }

    #[test]
    fn len_and_is_empty_are_read_only() {
        // &self receivers: stats must be callable through a shared
        // reference, proving they cannot move any write cursor.
        let wal = Wal::in_memory();
        let stats = |w: &Wal| (w.len().unwrap(), w.is_empty().unwrap());
        assert_eq!(stats(&wal), (MAGIC.len() as u64, true));
    }

    #[test]
    fn append_after_len_query_lands_at_the_end() {
        let mut wal = Wal::in_memory();
        wal.log_commit(1).unwrap();
        let before = wal.len().unwrap();
        let _ = wal.is_empty().unwrap();
        wal.log_commit(2).unwrap();
        assert!(wal.len().unwrap() > before);
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn file_backed_wal_reopens() {
        let dir = std::env::temp_dir().join(format!("rcmo-wal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.wal");
        let _ = std::fs::remove_file(&path);
        {
            let mut wal = Wal::open(&path).unwrap();
            wal.log_page(9, PageId(7), &image(7)).unwrap();
            wal.log_commit(9).unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::open(&path).unwrap();
            let (images, committed) = wal.committed_images().unwrap();
            assert!(committed.contains(&9));
            assert_eq!(images.len(), 1);
            // Appending after reopen lands at the end.
            wal.log_commit(10).unwrap();
            let recs = wal.records().unwrap();
            assert_eq!(recs.len(), 3);
        }
        let _ = std::fs::remove_file(&path);
    }

    /// Builds a raw commit frame (tag 'C') for hand-crafted logs.
    fn raw_commit_frame(txn: u64) -> Vec<u8> {
        let payload = txn.to_le_bytes();
        let mut framed = Vec::with_capacity(payload.len() + 9);
        framed.push(TAG_COMMIT);
        framed.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        framed.extend_from_slice(&payload);
        let sum = crc32(&framed);
        framed.extend_from_slice(&sum.to_le_bytes());
        framed
    }

    #[test]
    fn repeated_commit_is_idempotent() {
        let mut wal = Wal::in_memory();
        wal.log_page(7, PageId(1), &image(1)).unwrap();
        wal.log_commit(7).unwrap();
        let len = wal.len().unwrap();
        // The durability hook already logged txn 7; a second commit of the
        // same txn must not write a second record.
        wal.log_commit(7).unwrap();
        assert_eq!(wal.len().unwrap(), len);
        assert_eq!(wal.records().unwrap().len(), 2);
    }

    #[test]
    fn lower_commit_id_is_rejected() {
        let mut wal = Wal::in_memory();
        wal.log_commit(9).unwrap();
        assert!(matches!(wal.log_commit(4), Err(StorageError::Internal(_))));
        // The log is untouched by the rejected append.
        assert_eq!(wal.records().unwrap().len(), 1);
        // Truncation resets the watermark.
        wal.truncate().unwrap();
        wal.log_commit(4).unwrap();
    }

    #[test]
    fn reopened_wal_resumes_the_commit_watermark() {
        let store = crate::backend::MemBackend::new();
        let mut wal = Wal::from_backend(Box::new(store)).unwrap();
        wal.log_commit(11).unwrap();
        let mut bytes = vec![0u8; wal.len().unwrap() as usize];
        wal.backend_mut().read_at(0, &mut bytes).unwrap();
        let mut wal2 =
            Wal::from_backend(Box::new(crate::backend::MemBackend::from_bytes(bytes))).unwrap();
        assert!(matches!(wal2.log_commit(5), Err(StorageError::Internal(_))));
        wal2.log_commit(12).unwrap();
    }

    #[test]
    fn duplicate_commit_record_ends_replay_prefix() {
        let mut wal = Wal::in_memory();
        wal.log_page(1, PageId(1), &image(1)).unwrap();
        wal.log_commit(1).unwrap();
        // Damage: a byte-for-byte duplicate commit record for txn 1, then a
        // later legitimate-looking transaction.
        let end = wal.len().unwrap();
        let mut tail = raw_commit_frame(1);
        tail.extend_from_slice(&raw_commit_frame(2));
        wal.backend_mut().write_at(end, &tail).unwrap();
        let records = wal.records().unwrap();
        assert_eq!(records.len(), 2, "replay stops at the duplicate");
        let (_, committed) = wal.committed_images().unwrap();
        assert!(committed.contains(&1));
        assert!(!committed.contains(&2), "nothing after the damage applies");
    }

    #[test]
    fn non_monotonic_commit_record_ends_replay_prefix() {
        let mut wal = Wal::in_memory();
        wal.log_commit(5).unwrap();
        let end = wal.len().unwrap();
        wal.backend_mut()
            .write_at(end, &raw_commit_frame(3))
            .unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
    }

    #[test]
    fn corrupt_magic_is_quarantined_aside() {
        let dir = std::env::temp_dir().join(format!("rcmo-wal-q-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.wal");
        let _ = std::fs::remove_file(&path);
        std::fs::write(&path, b"NOPE plus garbage").unwrap();
        assert!(Wal::open(&path).is_err(), "strict open refuses bad magic");
        let (mut wal, quarantined) = Wal::open_or_quarantine(&path).unwrap();
        let aside = quarantined.expect("bad log moved aside");
        assert!(aside.exists());
        assert_eq!(std::fs::read(&aside).unwrap(), b"NOPE plus garbage");
        assert!(wal.is_empty().unwrap());
        wal.log_commit(1).unwrap();
        assert_eq!(wal.records().unwrap().len(), 1);
        // A healthy log is not quarantined.
        drop(wal);
        let (wal2, q2) = Wal::open_or_quarantine(&path).unwrap();
        assert!(q2.is_none());
        assert!(!wal2.is_empty().unwrap());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&aside);
    }
}
