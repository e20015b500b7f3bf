//! MVCC-lite snapshots: immutable committed versions shared between the
//! single writer and any number of concurrent readers.
//!
//! The database publishes an `Arc<CommittedState>` on every commit. A reader
//! clones that `Arc` (its *snapshot*) and reads through it for its whole
//! lifetime: pages committed since the last checkpoint come from the
//! version's copy-on-write page overlay, everything else from the shared
//! [`ReadLayer`](crate::pager::ReadLayer) (sharded page cache + data file).
//! Readers therefore never take the writer lock and can never observe a
//! half-committed transaction — the overlay map is frozen at publish time.
//!
//! The [`SnapshotRegistry`] tracks which versions still have live readers so
//! a checkpoint never overwrites on-disk page images while a reader of an
//! *older* version might still fall through the overlay to the data file.

use crate::catalog::CatalogEntry;
use crate::error::Result;
use crate::page::{Page, PageId};
use crate::pager::{PageRead, ReadLayer};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// One immutable version of the committed database.
#[derive(Debug)]
pub(crate) struct CommittedState {
    /// Commit sequence number. Bumped by every commit; *preserved* by the
    /// checkpoint that folds this version's overlay into the data file.
    pub(crate) csn: u64,
    /// Pages committed since the last checkpoint (newest image wins).
    ///
    /// Invariant: every committed page at or beyond the data file's end
    /// appears here, so the overlay plus the file covers `0..num_pages`
    /// without gaps and a checkpoint never has to invent filler pages.
    pub(crate) pages: HashMap<PageId, Arc<Page>>,
    /// The committed catalog, shared by reference with readers.
    pub(crate) catalog: Arc<HashMap<String, CatalogEntry>>,
    /// One past the highest committed page id.
    pub(crate) num_pages: u64,
}

impl CommittedState {
    /// The state of a database with no published commits yet: `num_pages`
    /// on-disk pages, an empty overlay and an empty catalog.
    pub(crate) fn bootstrap(num_pages: u64) -> CommittedState {
        CommittedState {
            csn: 0,
            pages: HashMap::new(),
            catalog: Arc::new(HashMap::new()),
            num_pages,
        }
    }
}

/// Reference counts of live reader snapshots, keyed by version.
///
/// The checkpoint uses this as a gate: folding version V's overlay into the
/// data file is safe only once no reader of a version *older than* V is
/// alive (readers at exactly V are fine — their overlay shadows every page
/// the checkpoint rewrites). Registration reads the current version under
/// the same lock the gate takes, so a reader can never slip an older
/// version past a checkpoint that already passed the gate.
#[derive(Debug, Default)]
pub(crate) struct SnapshotRegistry {
    live: Mutex<BTreeMap<u64, usize>>,
    released: Condvar,
}

impl SnapshotRegistry {
    pub(crate) fn new() -> SnapshotRegistry {
        SnapshotRegistry::default()
    }

    /// Atomically clones the current committed version out of `committed`
    /// and registers a reader of it.
    pub(crate) fn register_current(
        &self,
        committed: &RwLock<Arc<CommittedState>>,
    ) -> Arc<CommittedState> {
        let mut live = self.live.lock();
        let snap = Arc::clone(&committed.read());
        *live.entry(snap.csn).or_insert(0) += 1;
        snap
    }

    /// Releases one reader of version `csn`.
    pub(crate) fn release(&self, csn: u64) {
        let mut live = self.live.lock();
        if let Some(n) = live.get_mut(&csn) {
            *n -= 1;
            if *n == 0 {
                live.remove(&csn);
            }
        }
        drop(live);
        self.released.notify_all();
    }

    /// `true` when no live snapshot is older than version `csn`.
    pub(crate) fn none_older_than(&self, csn: u64) -> bool {
        match self.live.lock().keys().next() {
            None => true,
            Some(&oldest) => oldest >= csn,
        }
    }

    /// Blocks until every snapshot older than version `csn` is released.
    pub(crate) fn wait_none_older_than(&self, csn: u64) {
        let mut live = self.live.lock();
        loop {
            let ok = match live.keys().next() {
                None => true,
                Some(&oldest) => oldest >= csn,
            };
            if ok {
                return;
            }
            live = self.released.wait(live);
        }
    }
}

/// A [`PageRead`] view of one committed version, resolved through the
/// shared read layer. Constructed per call by read transactions; holds no
/// locks.
pub(crate) struct SnapshotReader<'a> {
    pub(crate) snap: &'a CommittedState,
    pub(crate) layer: &'a ReadLayer,
}

impl PageRead for SnapshotReader<'_> {
    fn with_page<R>(&mut self, id: PageId, f: impl FnOnce(&Page) -> R) -> Result<R> {
        self.layer.with_committed(self.snap, id, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_tracks_oldest_live_version() {
        let reg = SnapshotRegistry::new();
        assert!(reg.none_older_than(5));
        let committed = RwLock::new(Arc::new(CommittedState::bootstrap(1)));
        let snap = reg.register_current(&committed);
        assert_eq!(snap.csn, 0);
        assert!(reg.none_older_than(0));
        assert!(!reg.none_older_than(1));
        reg.release(0);
        assert!(reg.none_older_than(1));
    }

    #[test]
    fn wait_unblocks_when_old_reader_releases() {
        let reg = Arc::new(SnapshotRegistry::new());
        let committed = RwLock::new(Arc::new(CommittedState::bootstrap(1)));
        let snap = reg.register_current(&committed);
        let reg2 = Arc::clone(&reg);
        let t = std::thread::spawn(move || reg2.wait_none_older_than(1));
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert!(!t.is_finished(), "gate must hold while the reader lives");
        reg.release(snap.csn);
        t.join().unwrap();
    }
}
