//! Error type of the storage engine.

use std::fmt;
use std::io;

/// Errors raised by the storage engine.
#[derive(Debug)]
#[non_exhaustive]
pub enum StorageError {
    /// An underlying I/O failure.
    Io(io::Error),
    /// A page checksum mismatch (corruption or torn write).
    Corrupt {
        /// The page involved.
        page: u64,
        /// Details.
        detail: String,
    },
    /// The file is not a database of this engine / wrong version.
    BadHeader(String),
    /// A page id beyond the end of the file was requested.
    PageOutOfBounds(u64),
    /// The buffer pool has no evictable (clean, unpinned) frame left.
    PoolExhausted,
    /// A record exceeds the per-page capacity (use a BLOB instead).
    RecordTooLarge(usize),
    /// A record id did not resolve to a live record.
    RecordNotFound {
        /// The heap page.
        page: u64,
        /// The slot within the page.
        slot: u16,
    },
    /// A WAL record failed to decode (torn tail — recovery stops there).
    WalTornTail(u64),
    /// Catalog-level problem (unknown table, duplicate table, arity
    /// mismatch, type mismatch...).
    Catalog(String),
    /// A primary key already exists.
    DuplicateKey(u64),
    /// A key was not found in an index.
    KeyNotFound(u64),
    /// A BLOB id did not resolve to a live BLOB.
    BlobNotFound(u64),
    /// A secondary index cannot file one more row under a value: all 65 536
    /// slots of the value's hash bucket are taken (that many rows share
    /// the value, or collide with it).
    IndexBucketFull {
        /// The indexed table.
        table: String,
        /// The indexed column.
        column: String,
    },
    /// Generic invariant violation — indicates an engine bug.
    Internal(String),
    /// The database is poisoned: a commit became visible to readers but its
    /// WAL sync failed, so in-memory state and stable storage disagree. No
    /// further transactions are accepted; reopen the database to recover
    /// the durable prefix.
    Poisoned(String),
    /// A checkpoint step failed *after* the transaction committed: the
    /// transaction is visible to readers and its WAL records are synced, so
    /// it survives a reopen. Callers must **not** retry the transaction —
    /// only checkpoint housekeeping failed, and it is retried automatically
    /// before the next commit appends. The payload describes the underlying
    /// checkpoint failure.
    CheckpointAfterCommit(String),
    /// A deliberately injected fault (armed failpoint or `FaultyBackend`
    /// crash/transient error). Distinguishes simulated failures from real
    /// bugs in crash-torture harnesses; never raised in production.
    FaultInjected(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "i/o error: {e}"),
            StorageError::Corrupt { page, detail } => {
                write!(f, "page {page} corrupt: {detail}")
            }
            StorageError::BadHeader(m) => write!(f, "bad database header: {m}"),
            StorageError::PageOutOfBounds(p) => write!(f, "page {p} out of bounds"),
            StorageError::PoolExhausted => write!(f, "buffer pool exhausted"),
            StorageError::RecordTooLarge(n) => {
                write!(f, "record of {n} bytes exceeds page capacity")
            }
            StorageError::RecordNotFound { page, slot } => {
                write!(f, "record {page}:{slot} not found")
            }
            StorageError::WalTornTail(off) => write!(f, "torn WAL tail at offset {off}"),
            StorageError::Catalog(m) => write!(f, "catalog error: {m}"),
            StorageError::DuplicateKey(k) => write!(f, "duplicate key {k}"),
            StorageError::KeyNotFound(k) => write!(f, "key {k} not found"),
            StorageError::BlobNotFound(b) => write!(f, "blob {b} not found"),
            StorageError::IndexBucketFull { table, column } => {
                write!(f, "index on {table}.{column}: hash bucket full")
            }
            StorageError::Internal(m) => write!(f, "internal error: {m}"),
            StorageError::Poisoned(m) => write!(f, "database poisoned: {m}"),
            StorageError::CheckpointAfterCommit(m) => write!(
                f,
                "checkpoint failed after commit (the transaction is committed and durable): {m}"
            ),
            StorageError::FaultInjected(m) => write!(f, "injected fault: {m}"),
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<rcmo_obs::wire::WireError> for StorageError {
    fn from(e: rcmo_obs::wire::WireError) -> Self {
        StorageError::Catalog(e.to_string())
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// Result alias for the storage engine.
pub type Result<T> = std::result::Result<T, StorageError>;
