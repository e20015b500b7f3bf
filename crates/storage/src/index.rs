//! Secondary indexes: entries of the ordinary `u64 → u64` [`BTree`], keyed
//! by a hash of the indexed column's value.
//!
//! ```text
//! entry key   = hash48(encoded column value) << 16 | slot
//! entry value = primary key of the row
//! ```
//!
//! All rows whose value hashes alike share one *bucket* — the 65 536
//! consecutive keys with the same upper 48 bits — and take the lowest free
//! slot in it. Equal values and colliding hashes are therefore the same
//! case: a lookup is one [`BTree::range`] over the bucket, and the caller
//! fetches each candidate row and compares the stored column value. The
//! hash only narrows the search; it never decides a match.
//!
//! The hash is on disk, so it is written out here (FNV-1a, folded to 48
//! bits) instead of borrowed from `std`, whose `DefaultHasher` may change
//! between toolchains.

use crate::btree::BTree;
use crate::catalog::{encode_value, RowValue};
use crate::error::{Result, StorageError};
use crate::page::PageId;
use crate::pager::{BufferPool, PageRead};
use rcmo_obs::wire::Writer;

/// Low bits of an entry key that number the slot inside a bucket.
pub(crate) const SLOT_MASK: u64 = 0xFFFF;

/// The first key of `value`'s bucket: 64-bit FNV-1a over the value's row
/// encoding (tag byte, then payload), xor-folded to 48 bits, shifted past
/// the slot bits.
pub(crate) fn bucket(value: &RowValue) -> u64 {
    let mut w = Writer::with_capacity(16);
    encode_value(value, &mut w);
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in w.as_slice() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    ((h ^ (h >> 48)) & 0xFFFF_FFFF_FFFF) << 16
}

/// Every `(entry key, primary key)` in `value`'s bucket, by slot.
pub(crate) fn candidates<P: PageRead>(
    pages: &mut P,
    root: PageId,
    value: &RowValue,
) -> Result<Vec<(u64, u64)>> {
    let base = bucket(value);
    BTree::open(root).range(pages, base, base | SLOT_MASK)
}

/// The key a new entry for `value` takes — the lowest free slot of its
/// bucket — or `None` when all 65 536 are in use.
pub(crate) fn free_key(
    pool: &mut BufferPool,
    root: PageId,
    value: &RowValue,
) -> Result<Option<u64>> {
    let base = bucket(value);
    let taken = candidates(pool, root, value)?;
    // Slots come back ascending, so the first position that does not hold
    // its own number is the lowest gap.
    let slot = taken
        .iter()
        .zip(0u64..)
        .find(|&(&(key, _), slot)| key != base | slot)
        .map_or(taken.len() as u64, |(_, slot)| slot);
    Ok((slot <= SLOT_MASK).then_some(base | slot))
}

/// Deletes the entry that files row `pk` under `value`.
pub(crate) fn remove(pool: &mut BufferPool, root: PageId, value: &RowValue, pk: u64) -> Result<()> {
    let key = candidates(pool, root, value)?
        .into_iter()
        .find(|&(_, v)| v == pk)
        .map(|(key, _)| key)
        .ok_or_else(|| {
            StorageError::Internal(format!("row {pk} has no entry in its secondary index"))
        })?;
    // Deletion is lazy in this tree: the root never moves.
    BTree::open(root).delete(pool, key).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskManager;
    use crate::page::{Page, PageKind};
    use crate::pager::META_FREE_HEAD;

    #[test]
    fn entries_take_the_lowest_free_slot_until_the_bucket_is_full() {
        let mut disk = DiskManager::in_memory();
        let mut meta = Page::new(PageKind::Meta);
        meta.put_u64(META_FREE_HEAD, PageId::NONE.0);
        disk.write_page(PageId::META, &mut meta).unwrap();
        let mut pool = BufferPool::for_tests(disk);

        let value = RowValue::Text("shared".into());
        let base = bucket(&value);
        let mut tree = BTree::create(&mut pool).unwrap();
        // Neighbours on both sides of the bucket must not be mistaken for it.
        tree.insert(&mut pool, base - 1, 0).unwrap();
        tree.insert(&mut pool, base + SLOT_MASK + 1, 0).unwrap();
        for pk in 0..=SLOT_MASK {
            let key = free_key(&mut pool, tree.root(), &value).unwrap();
            assert_eq!(key, Some(base | pk));
            tree.insert(&mut pool, base | pk, pk).unwrap();
            // Filling slot by slot is quadratic; jump to the last few.
            if pk == 600 {
                for fill in 601..SLOT_MASK - 2 {
                    tree.insert(&mut pool, base | fill, fill).unwrap();
                }
                break;
            }
        }
        for pk in SLOT_MASK - 2..=SLOT_MASK {
            let key = free_key(&mut pool, tree.root(), &value).unwrap();
            assert_eq!(key, Some(base | pk));
            tree.insert(&mut pool, base | pk, pk).unwrap();
        }
        assert_eq!(free_key(&mut pool, tree.root(), &value).unwrap(), None);
        assert_eq!(
            candidates(&mut pool, tree.root(), &value).unwrap().len(),
            SLOT_MASK as usize + 1
        );

        // A removed entry's slot is the next one handed out.
        remove(&mut pool, tree.root(), &value, 7).unwrap();
        remove(&mut pool, tree.root(), &value, 40_000).unwrap();
        assert_eq!(
            free_key(&mut pool, tree.root(), &value).unwrap(),
            Some(base | 7)
        );
        assert!(remove(&mut pool, tree.root(), &value, 7).is_err());
    }

    /// The hash is a file format: these values must never change.
    #[test]
    fn bucket_hash_is_pinned() {
        // FNV-1a of the single byte 0x00 is 0xAF63_BD4C_8601_B7DF.
        assert_eq!(bucket(&RowValue::Null), 0xBD4C_8601_18BC_0000);
        let admin = bucket(&RowValue::Text("admin".into()));
        assert_eq!(admin, 0xC713_582D_1590_0000);
        assert_ne!(admin, bucket(&RowValue::Text("admim".into())));
        // Same payload bytes, different type tag: different bucket.
        assert_ne!(bucket(&RowValue::U64(7)), bucket(&RowValue::I64(7)));
    }
}
