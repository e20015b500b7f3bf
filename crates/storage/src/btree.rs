//! A B+tree mapping `u64` keys to `u64` values (primary-key → packed record
//! id in this engine).
//!
//! Node layouts (body-relative offsets):
//!
//! ```text
//! leaf:     0..2 u16 nkeys | 2..10 u64 next_leaf
//!           10..  nkeys × (u64 key, u64 value)
//! internal: 0..2 u16 nkeys | 8..16 u64 child0
//!           16..  nkeys × (u64 key_i, u64 child_{i+1})
//! ```
//!
//! In an internal node, `child_i` covers keys `< key_i`; the last child
//! covers the rest. Leaves are chained left-to-right for range scans.
//!
//! Deletion is *lazy*: keys are removed from leaves but nodes are never
//! merged (the common trade-off in embedded engines; space is reclaimed when
//! the index is rebuilt). Underflowing pages therefore stay in the tree but
//! empty leaves remain linked and are skipped by scans.

use crate::error::{Result, StorageError};
use crate::page::{PageId, PageKind};
use crate::pager::{BufferPool, PageRead};

pub(crate) const OFF_NKEYS: usize = 0;
pub(crate) const OFF_NEXT_LEAF: usize = 2;
pub(crate) const LEAF_ENTRIES: usize = 10;
pub(crate) const OFF_CHILD0: usize = 8;
pub(crate) const INTERNAL_ENTRIES: usize = 16;

/// Maximum keys per leaf (fits well inside one page body).
pub const LEAF_CAP: usize = 500;
/// Maximum keys per internal node.
pub const INTERNAL_CAP: usize = 500;

/// A B+tree handle; `root` must be persisted by the caller (catalog) and
/// refreshed from [`BTree::root`] after mutations.
#[derive(Debug, Clone, Copy)]
pub struct BTree {
    root: PageId,
}

fn leaf_key(pool: &mut BufferPool, page: PageId, i: usize) -> Result<u64> {
    pool.with_page(page, |p| p.get_u64(LEAF_ENTRIES + i * 16))
}

impl BTree {
    /// Creates an empty tree (a single empty leaf).
    pub fn create(pool: &mut BufferPool) -> Result<BTree> {
        let root = pool.allocate(PageKind::BTreeLeaf)?;
        pool.with_page_mut(root, |p| {
            p.put_u16(OFF_NKEYS, 0);
            p.put_u64(OFF_NEXT_LEAF, PageId::NONE.0);
        })?;
        Ok(BTree { root })
    }

    /// Opens a tree rooted at `root`.
    pub fn open(root: PageId) -> BTree {
        BTree { root }
    }

    /// The current root page (persist after mutations).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Finds the leaf that should contain `key`.
    fn find_leaf<P: PageRead>(&self, pool: &mut P, key: u64) -> Result<PageId> {
        let mut node = self.root;
        loop {
            let (kind, nkeys) =
                pool.with_page(node, |p| (p.kind(), p.get_u16(OFF_NKEYS) as usize))?;
            match kind {
                PageKind::BTreeLeaf => return Ok(node),
                PageKind::BTreeInternal => {
                    node = pool.with_page(node, |p| {
                        let mut child = PageId(p.get_u64(OFF_CHILD0));
                        for i in 0..nkeys {
                            let k = p.get_u64(INTERNAL_ENTRIES + i * 16);
                            if key >= k {
                                child = PageId(p.get_u64(INTERNAL_ENTRIES + i * 16 + 8));
                            } else {
                                break;
                            }
                        }
                        child
                    })?;
                }
                other => {
                    return Err(StorageError::Internal(format!(
                        "b+tree descent hit a {other:?} page"
                    )))
                }
            }
        }
    }

    /// Looks `key` up. Generic over the page source so snapshot readers
    /// share the code path with the writer's pool.
    pub fn get<P: PageRead>(&self, pool: &mut P, key: u64) -> Result<Option<u64>> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.btree.get.us", rcmo_obs::bounds::LATENCY_US);
        let _t = LAT.start_timer();
        let leaf = self.find_leaf(pool, key)?;
        pool.with_page(leaf, |p| {
            let n = p.get_u16(OFF_NKEYS) as usize;
            for i in 0..n {
                let k = p.get_u64(LEAF_ENTRIES + i * 16);
                if k == key {
                    return Some(p.get_u64(LEAF_ENTRIES + i * 16 + 8));
                }
                if k > key {
                    break;
                }
            }
            None
        })
    }

    /// Inserts `key → value`. Fails with [`StorageError::DuplicateKey`] if
    /// the key exists (primary-key semantics); use
    /// [`put`](Self::put) for upserts.
    pub fn insert(&mut self, pool: &mut BufferPool, key: u64, value: u64) -> Result<()> {
        if self.get(pool, key)?.is_some() {
            return Err(StorageError::DuplicateKey(key));
        }
        self.insert_unchecked(pool, key, value)
    }

    /// Inserts or replaces `key → value`.
    pub fn put(&mut self, pool: &mut BufferPool, key: u64, value: u64) -> Result<()> {
        static LAT: rcmo_obs::LazyHistogram =
            rcmo_obs::LazyHistogram::new("storage.btree.put.us", rcmo_obs::bounds::LATENCY_US);
        let _t = LAT.start_timer();
        let leaf = self.find_leaf(pool, key)?;
        let replaced = pool.with_page_mut(leaf, |p| {
            let n = p.get_u16(OFF_NKEYS) as usize;
            for i in 0..n {
                if p.get_u64(LEAF_ENTRIES + i * 16) == key {
                    p.put_u64(LEAF_ENTRIES + i * 16 + 8, value);
                    return true;
                }
            }
            false
        })?;
        if replaced {
            return Ok(());
        }
        self.insert_unchecked(pool, key, value)
    }

    fn insert_unchecked(&mut self, pool: &mut BufferPool, key: u64, value: u64) -> Result<()> {
        if let Some((sep, right)) = self.insert_rec(pool, self.root, key, value)? {
            // Root split: build a new internal root.
            let new_root = pool.allocate(PageKind::BTreeInternal)?;
            let old_root = self.root;
            pool.with_page_mut(new_root, |p| {
                p.put_u16(OFF_NKEYS, 1);
                p.put_u64(OFF_CHILD0, old_root.0);
                p.put_u64(INTERNAL_ENTRIES, sep);
                p.put_u64(INTERNAL_ENTRIES + 8, right.0);
            })?;
            self.root = new_root;
        }
        Ok(())
    }

    /// Recursive insert; returns `Some((separator, new right sibling))` when
    /// the child split.
    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        key: u64,
        value: u64,
    ) -> Result<Option<(u64, PageId)>> {
        let kind = pool.with_page(node, |p| p.kind())?;
        match kind {
            PageKind::BTreeLeaf => self.insert_leaf(pool, node, key, value),
            PageKind::BTreeInternal => {
                let (child, child_idx, nkeys) = pool.with_page(node, |p| {
                    let n = p.get_u16(OFF_NKEYS) as usize;
                    let mut child = PageId(p.get_u64(OFF_CHILD0));
                    let mut idx = 0usize;
                    for i in 0..n {
                        let k = p.get_u64(INTERNAL_ENTRIES + i * 16);
                        if key >= k {
                            child = PageId(p.get_u64(INTERNAL_ENTRIES + i * 16 + 8));
                            idx = i + 1;
                        } else {
                            break;
                        }
                    }
                    (child, idx, n)
                })?;
                let Some((sep, right)) = self.insert_rec(pool, child, key, value)? else {
                    return Ok(None);
                };
                // Insert (sep, right) into this node at position child_idx.
                if nkeys < INTERNAL_CAP {
                    pool.with_page_mut(node, |p| {
                        let n = p.get_u16(OFF_NKEYS) as usize;
                        // Shift entries right of child_idx.
                        for i in (child_idx..n).rev() {
                            let k = p.get_u64(INTERNAL_ENTRIES + i * 16);
                            let c = p.get_u64(INTERNAL_ENTRIES + i * 16 + 8);
                            p.put_u64(INTERNAL_ENTRIES + (i + 1) * 16, k);
                            p.put_u64(INTERNAL_ENTRIES + (i + 1) * 16 + 8, c);
                        }
                        p.put_u64(INTERNAL_ENTRIES + child_idx * 16, sep);
                        p.put_u64(INTERNAL_ENTRIES + child_idx * 16 + 8, right.0);
                        p.put_u16(OFF_NKEYS, (n + 1) as u16);
                    })?;
                    return Ok(None);
                }
                // Split this internal node.
                self.split_internal(pool, node, child_idx, sep, right)
            }
            other => Err(StorageError::Internal(format!(
                "b+tree insert hit a {other:?} page"
            ))),
        }
    }

    fn insert_leaf(
        &mut self,
        pool: &mut BufferPool,
        leaf: PageId,
        key: u64,
        value: u64,
    ) -> Result<Option<(u64, PageId)>> {
        let nkeys = pool.with_page(leaf, |p| p.get_u16(OFF_NKEYS) as usize)?;
        if nkeys < LEAF_CAP {
            pool.with_page_mut(leaf, |p| {
                let n = p.get_u16(OFF_NKEYS) as usize;
                let mut pos = n;
                for i in 0..n {
                    if p.get_u64(LEAF_ENTRIES + i * 16) > key {
                        pos = i;
                        break;
                    }
                }
                for i in (pos..n).rev() {
                    let k = p.get_u64(LEAF_ENTRIES + i * 16);
                    let v = p.get_u64(LEAF_ENTRIES + i * 16 + 8);
                    p.put_u64(LEAF_ENTRIES + (i + 1) * 16, k);
                    p.put_u64(LEAF_ENTRIES + (i + 1) * 16 + 8, v);
                }
                p.put_u64(LEAF_ENTRIES + pos * 16, key);
                p.put_u64(LEAF_ENTRIES + pos * 16 + 8, value);
                p.put_u16(OFF_NKEYS, (n + 1) as u16);
            })?;
            return Ok(None);
        }
        // Split: move the upper half to a fresh right leaf, then insert into
        // the appropriate side.
        let right = pool.allocate(PageKind::BTreeLeaf)?;
        let mid = LEAF_CAP / 2;
        let mut moved: Vec<(u64, u64)> = Vec::with_capacity(LEAF_CAP - mid);
        let old_next = pool.with_page_mut(leaf, |p| {
            let n = p.get_u16(OFF_NKEYS) as usize;
            for i in mid..n {
                moved.push((
                    p.get_u64(LEAF_ENTRIES + i * 16),
                    p.get_u64(LEAF_ENTRIES + i * 16 + 8),
                ));
            }
            p.put_u16(OFF_NKEYS, mid as u16);
            let old_next = p.get_u64(OFF_NEXT_LEAF);
            p.put_u64(OFF_NEXT_LEAF, right.0);
            old_next
        })?;
        pool.with_page_mut(right, |p| {
            p.put_u16(OFF_NKEYS, moved.len() as u16);
            p.put_u64(OFF_NEXT_LEAF, old_next);
            for (i, (k, v)) in moved.iter().enumerate() {
                p.put_u64(LEAF_ENTRIES + i * 16, *k);
                p.put_u64(LEAF_ENTRIES + i * 16 + 8, *v);
            }
        })?;
        let sep = leaf_key(pool, right, 0)?;
        // Insert the pending key into the correct half (both have room now).
        let target = if key >= sep { right } else { leaf };
        let sub = self.insert_leaf(pool, target, key, value)?;
        debug_assert!(sub.is_none(), "post-split leaf cannot split again");
        Ok(Some((sep, right)))
    }

    fn split_internal(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        pending_idx: usize,
        pending_sep: u64,
        pending_child: PageId,
    ) -> Result<Option<(u64, PageId)>> {
        // Materialise entries, insert the pending one, split in memory, and
        // write both halves back. Simpler than in-place shifting around the
        // promotion point and still O(cap).
        let child0 = pool.with_page(node, |p| p.get_u64(OFF_CHILD0))?;
        let mut entries: Vec<(u64, u64)> = pool.with_page(node, |p| {
            let n = p.get_u16(OFF_NKEYS) as usize;
            (0..n)
                .map(|i| {
                    (
                        p.get_u64(INTERNAL_ENTRIES + i * 16),
                        p.get_u64(INTERNAL_ENTRIES + i * 16 + 8),
                    )
                })
                .collect()
        })?;
        entries.insert(pending_idx, (pending_sep, pending_child.0));
        let mid = entries.len() / 2;
        let (promoted, right_child0) = entries[mid];
        let left: Vec<(u64, u64)> = entries[..mid].to_vec();
        let right_entries: Vec<(u64, u64)> = entries[mid + 1..].to_vec();
        let right = pool.allocate(PageKind::BTreeInternal)?;
        pool.with_page_mut(node, |p| {
            p.put_u16(OFF_NKEYS, left.len() as u16);
            p.put_u64(OFF_CHILD0, child0);
            for (i, (k, c)) in left.iter().enumerate() {
                p.put_u64(INTERNAL_ENTRIES + i * 16, *k);
                p.put_u64(INTERNAL_ENTRIES + i * 16 + 8, *c);
            }
        })?;
        pool.with_page_mut(right, |p| {
            p.put_u16(OFF_NKEYS, right_entries.len() as u16);
            p.put_u64(OFF_CHILD0, right_child0);
            for (i, (k, c)) in right_entries.iter().enumerate() {
                p.put_u64(INTERNAL_ENTRIES + i * 16, *k);
                p.put_u64(INTERNAL_ENTRIES + i * 16 + 8, *c);
            }
        })?;
        Ok(Some((promoted, right)))
    }

    /// Removes `key`; returns its value or [`StorageError::KeyNotFound`].
    pub fn delete(&mut self, pool: &mut BufferPool, key: u64) -> Result<u64> {
        let leaf = self.find_leaf(pool, key)?;
        pool.with_page_mut(leaf, |p| {
            let n = p.get_u16(OFF_NKEYS) as usize;
            for i in 0..n {
                if p.get_u64(LEAF_ENTRIES + i * 16) == key {
                    let value = p.get_u64(LEAF_ENTRIES + i * 16 + 8);
                    for j in i + 1..n {
                        let k = p.get_u64(LEAF_ENTRIES + j * 16);
                        let v = p.get_u64(LEAF_ENTRIES + j * 16 + 8);
                        p.put_u64(LEAF_ENTRIES + (j - 1) * 16, k);
                        p.put_u64(LEAF_ENTRIES + (j - 1) * 16 + 8, v);
                    }
                    p.put_u16(OFF_NKEYS, (n - 1) as u16);
                    return Ok(value);
                }
            }
            Err(StorageError::KeyNotFound(key))
        })?
    }

    /// Returns all `(key, value)` pairs with `start <= key <= end`,
    /// ascending.
    pub fn range<P: PageRead>(
        &self,
        pool: &mut P,
        start: u64,
        end: u64,
    ) -> Result<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        if start > end {
            return Ok(out);
        }
        let mut leaf = self.find_leaf(pool, start)?;
        loop {
            let next = pool.with_page(leaf, |p| {
                let n = p.get_u16(OFF_NKEYS) as usize;
                for i in 0..n {
                    let k = p.get_u64(LEAF_ENTRIES + i * 16);
                    if k >= start && k <= end {
                        out.push((k, p.get_u64(LEAF_ENTRIES + i * 16 + 8)));
                    }
                }
                PageId(p.get_u64(OFF_NEXT_LEAF))
            })?;
            // Stop once the last key of this leaf passed `end` or no next.
            if let Some(&(last, _)) = out.last() {
                if last >= end {
                    break;
                }
            }
            if !next.is_some() {
                break;
            }
            let first_next = pool.with_page(next, |p| {
                let n = p.get_u16(OFF_NKEYS) as usize;
                if n == 0 {
                    None
                } else {
                    Some(p.get_u64(LEAF_ENTRIES))
                }
            })?;
            if let Some(k) = first_next {
                if k > end {
                    break;
                }
            }
            leaf = next;
        }
        Ok(out)
    }

    /// All entries in key order.
    pub fn scan_all<P: PageRead>(&self, pool: &mut P) -> Result<Vec<(u64, u64)>> {
        self.range(pool, 0, u64::MAX)
    }

    /// Number of keys (walks the leaf chain).
    pub fn len<P: PageRead>(&self, pool: &mut P) -> Result<usize> {
        Ok(self.scan_all(pool)?.len())
    }

    /// `true` if the tree holds no keys.
    pub fn is_empty<P: PageRead>(&self, pool: &mut P) -> Result<bool> {
        Ok(self.len(pool)? == 0)
    }

    /// Frees every page of the tree (drop table).
    pub fn destroy(self, pool: &mut BufferPool) -> Result<()> {
        let children: Vec<PageId> = pool.with_page(self.root, |p| {
            if p.kind() != PageKind::BTreeInternal {
                return Vec::new();
            }
            let nkeys = p.get_u16(OFF_NKEYS) as usize;
            std::iter::once(OFF_CHILD0)
                .chain((0..nkeys).map(|i| INTERNAL_ENTRIES + i * 16 + 8))
                .map(|off| PageId(p.get_u64(off)))
                .collect()
        })?;
        for child in children {
            BTree::open(child).destroy(pool)?;
        }
        pool.free_page(self.root)
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

    #[test]
    fn empty_tree() {
        let mut pool = pool();
        let tree = BTree::create(&mut pool).unwrap();
        assert_eq!(tree.get(&mut pool, 5).unwrap(), None);
        assert!(tree.is_empty(&mut pool).unwrap());
    }

    #[test]
    fn insert_get_small() {
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            tree.insert(&mut pool, k, k * 100).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(tree.get(&mut pool, k).unwrap(), Some(k * 100));
        }
        assert_eq!(tree.get(&mut pool, 4).unwrap(), None);
        assert_eq!(
            tree.scan_all(&mut pool).unwrap(),
            vec![(1, 100), (3, 300), (5, 500), (7, 700), (9, 900)]
        );
    }

    #[test]
    fn duplicate_rejected_put_replaces() {
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        tree.insert(&mut pool, 1, 10).unwrap();
        assert!(matches!(
            tree.insert(&mut pool, 1, 20),
            Err(StorageError::DuplicateKey(1))
        ));
        tree.put(&mut pool, 1, 20).unwrap();
        assert_eq!(tree.get(&mut pool, 1).unwrap(), Some(20));
        tree.put(&mut pool, 2, 30).unwrap();
        assert_eq!(tree.len(&mut pool).unwrap(), 2);
    }

    #[test]
    fn large_sequential_insert_splits() {
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        let n = 5_000u64;
        for k in 0..n {
            tree.insert(&mut pool, k, k + 1).unwrap();
        }
        assert_eq!(tree.len(&mut pool).unwrap(), n as usize);
        for k in (0..n).step_by(97) {
            assert_eq!(tree.get(&mut pool, k).unwrap(), Some(k + 1));
        }
        // Root must be internal by now.
        assert_eq!(
            pool.with_page(tree.root(), |p| p.kind()).unwrap(),
            PageKind::BTreeInternal
        );
    }

    #[test]
    fn large_random_insert_scan_is_sorted() {
        use rand::prelude::*;
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut keys: Vec<u64> = (0..4_000u64).collect();
        keys.shuffle(&mut rng);
        for &k in &keys {
            tree.insert(&mut pool, k, u64::MAX - k).unwrap();
        }
        let all = tree.scan_all(&mut pool).unwrap();
        assert_eq!(all.len(), keys.len());
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "sorted unique");
        for (k, v) in all {
            assert_eq!(v, u64::MAX - k);
        }
    }

    #[test]
    fn range_queries() {
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        for k in (0..2_000u64).map(|i| i * 2) {
            tree.insert(&mut pool, k, k).unwrap();
        }
        let r = tree.range(&mut pool, 100, 120).unwrap();
        assert_eq!(
            r.iter().map(|&(k, _)| k).collect::<Vec<_>>(),
            vec![100, 102, 104, 106, 108, 110, 112, 114, 116, 118, 120]
        );
        assert!(tree.range(&mut pool, 51, 51).unwrap().is_empty());
        assert!(tree.range(&mut pool, 10, 5).unwrap().is_empty());
        let head = tree.range(&mut pool, 0, 10).unwrap();
        assert_eq!(head.len(), 6);
    }

    #[test]
    fn delete_and_reinsert() {
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        for k in 0..1_200u64 {
            tree.insert(&mut pool, k, k).unwrap();
        }
        for k in (0..1_200u64).filter(|k| k % 3 == 0) {
            assert_eq!(tree.delete(&mut pool, k).unwrap(), k);
        }
        assert_eq!(tree.len(&mut pool).unwrap(), 800);
        assert!(matches!(
            tree.delete(&mut pool, 0),
            Err(StorageError::KeyNotFound(0))
        ));
        assert_eq!(tree.get(&mut pool, 3).unwrap(), None);
        assert_eq!(tree.get(&mut pool, 4).unwrap(), Some(4));
        // Deleted keys can be reinserted.
        tree.insert(&mut pool, 3, 33).unwrap();
        assert_eq!(tree.get(&mut pool, 3).unwrap(), Some(33));
    }

    #[test]
    fn interleaved_workload() {
        use rand::prelude::*;
        let mut pool = pool();
        let mut tree = BTree::create(&mut pool).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..8_000 {
            let k = rng.gen_range(0..1_000u64);
            if rng.gen_bool(0.6) {
                tree.put(&mut pool, k, k * 7).unwrap();
                model.insert(k, k * 7);
            } else if model.remove(&k).is_some() {
                tree.delete(&mut pool, k).unwrap();
            } else {
                assert!(tree.delete(&mut pool, k).is_err());
            }
        }
        let got = tree.scan_all(&mut pool).unwrap();
        let want: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(got, want);
    }
}
