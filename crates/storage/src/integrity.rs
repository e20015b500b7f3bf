//! Whole-database invariant checking.
//!
//! [`Database::check_integrity`] walks every on-disk structure from the
//! meta page outward and verifies the storage invariants the engine relies
//! on:
//!
//! * the meta page carries the magic and its roots resolve,
//! * the free list is acyclic and made of `Free` pages,
//! * every table's heap chain is reachable, typed `Heap`, and acyclic,
//! * every table's B+tree has uniform leaf depth (balance), globally
//!   strictly-ascending keys (ordering), and a leaf sibling chain that
//!   matches the tree's in-order leaves,
//! * every index entry resolves to a live heap record that decodes under
//!   the table schema with a matching primary key, and every live heap
//!   record is referenced by the index (no orphans),
//! * every secondary index is a well-formed B+tree of its own that files
//!   each row exactly once, in the bucket its column value hashes to, and
//!   holds no entry for a row that is gone,
//! * every `Blob` value reaches an intact chunk chain whose lengths sum to
//!   the recorded total,
//! * no page is claimed by two different structures.
//!
//! Problems are collected, not thrown: hard invariant violations land in
//! [`IntegrityReport::errors`], benign oddities (e.g. pages leaked by
//! `drop_table`, which intentionally does not chase blobs) in
//! [`IntegrityReport::warnings`]. The crash-torture harness asserts
//! [`IntegrityReport::is_ok`] after every simulated crash and reopen.

use crate::blob;
use crate::btree;
use crate::catalog::{ColumnType, RowValue};
use crate::db::{Database, Reads, META_CATALOG_ROOT, META_MAGIC, META_MAGIC_OFF, META_MAGIC_V1};
use crate::heap::{self, RecordId};
use crate::index;
use crate::page::{PageId, PageKind};
use crate::pager::{PageRead, META_FREE_HEAD};
use crate::snapshot::SnapshotReader;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// The outcome of a [`Database::check_integrity`] walk.
#[derive(Debug, Default)]
pub struct IntegrityReport {
    /// Total pages in the data file.
    pub pages: u64,
    /// Tables found in the catalog.
    pub tables: usize,
    /// Live rows across all tables.
    pub rows: u64,
    /// Distinct blobs reachable from rows.
    pub blobs: usize,
    /// Pages on the free list.
    pub free_pages: u64,
    /// Hard invariant violations (corruption, unbalanced trees, orphans…).
    pub errors: Vec<String>,
    /// Benign oddities (unreachable pages leaked by design…).
    pub warnings: Vec<String>,
}

impl IntegrityReport {
    /// `true` when no hard invariant was violated (warnings allowed).
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }
}

impl fmt::Display for IntegrityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "integrity: {} pages, {} tables, {} rows, {} blobs, {} free, {} errors, {} warnings",
            self.pages,
            self.tables,
            self.rows,
            self.blobs,
            self.free_pages,
            self.errors.len(),
            self.warnings.len()
        )
    }
}

impl Database {
    /// Walks every committed structure and verifies the storage invariants
    /// (see the [module docs](self)). The walk reads a snapshot of the last
    /// committed state, like [`begin_read`](Self::begin_read): it never
    /// takes the writer lock, and an open [`Transaction`](crate::Transaction)
    /// neither blocks it nor shows up in the report.
    pub fn check_integrity(&self) -> IntegrityReport {
        check(&mut self.snapshot().reads())
    }
}

/// Page-ownership ledger: page id → what claimed it.
struct Claims {
    owner: HashMap<u64, String>,
    pages: u64,
}

impl Claims {
    /// Claims `page` for `what`. Records an error and returns `false` if the
    /// page is out of bounds or already claimed by something else.
    fn claim(&mut self, page: PageId, what: &str, errors: &mut Vec<String>) -> bool {
        if page.0 >= self.pages {
            errors.push(format!("{what}: page {} out of bounds", page.0));
            return false;
        }
        if let Some(prev) = self.owner.get(&page.0) {
            errors.push(format!("{what}: page {} already claimed by {prev}", page.0));
            return false;
        }
        self.owner.insert(page.0, what.to_string());
        true
    }
}

fn check(r: &mut Reads<'_, SnapshotReader<'_>>) -> IntegrityReport {
    let mut rep = IntegrityReport {
        pages: r.pages.snap.num_pages,
        ..IntegrityReport::default()
    };
    let mut claims = Claims {
        owner: HashMap::new(),
        pages: rep.pages,
    };

    // Meta page.
    if rep.pages == 0 {
        rep.errors.push("data file has no meta page".to_string());
        return rep;
    }
    claims.claim(PageId::META, "meta", &mut rep.errors);
    match r.pages.with_page(PageId::META, |p| {
        (
            p.kind(),
            p.get_u64(META_MAGIC_OFF),
            p.get_u64(META_FREE_HEAD),
        )
    }) {
        Ok((kind, magic, free_head)) => {
            if kind != PageKind::Meta {
                rep.errors.push(format!("meta page has kind {kind:?}"));
            }
            let indexed = r.catalog.values().any(|e| !e.info.indexes.is_empty());
            if magic != META_MAGIC && (magic != META_MAGIC_V1 || indexed) {
                rep.errors
                    .push(format!("meta magic {magic:#x} != {META_MAGIC:#x}"));
            }
            walk_free_list(&mut r.pages, PageId(free_head), &mut claims, &mut rep);
        }
        Err(e) => rep.errors.push(format!("meta page unreadable: {e}")),
    }

    // Catalog heap.
    let catalog_root = match r
        .pages
        .with_page(PageId::META, |p| PageId(p.get_u64(META_CATALOG_ROOT)))
    {
        Ok(root) => root,
        Err(_) => return rep, // already reported above
    };
    if catalog_root.is_some() {
        walk_heap_chain(
            &mut r.pages,
            catalog_root,
            "catalog heap",
            &mut claims,
            &mut rep,
        );
    } else {
        rep.errors.push("meta page has no catalog root".to_string());
    }

    // Tables: the committed catalog was loaded from the catalog heap at
    // open, so it is the authoritative view of what should be reachable.
    let mut tables: Vec<_> = r.catalog.values().map(|e| &e.info).collect();
    tables.sort_by(|a, b| a.name.cmp(&b.name));
    rep.tables = tables.len();
    let mut seen_blobs: HashSet<u64> = HashSet::new();
    for info in tables {
        let live = walk_heap_chain(
            &mut r.pages,
            info.heap_root,
            &format!("table {} heap", info.name),
            &mut claims,
            &mut rep,
        );
        let what = format!("table {} index", info.name);
        let pairs = walk_btree(&mut r.pages, info.index_root, &what, &mut claims, &mut rep);
        let filed = check_rows(
            r,
            info,
            &live,
            &pairs,
            &mut seen_blobs,
            &mut claims,
            &mut rep,
        );
        rep.rows += pairs.len() as u64;

        // Secondary indexes, both directions: every entry must be the one
        // entry of a live row and sit in that row's bucket; every row must
        // have been met.
        for (ix, mut unmet) in info.indexes.iter().zip(filed) {
            let what = format!(
                "table {} index on {}",
                info.name,
                info.schema.columns()[ix.column].name
            );
            for (key, pk) in walk_btree(&mut r.pages, ix.root, &what, &mut claims, &mut rep) {
                match unmet.remove(&pk) {
                    Some(bucket) if bucket == key & !index::SLOT_MASK => {}
                    Some(bucket) => rep.errors.push(format!(
                        "{what}: entry {key:#x} files row {pk} outside its bucket {bucket:#x}"
                    )),
                    None => rep.errors.push(format!(
                        "{what}: entry {key:#x} points at row {pk}, which is gone or already filed"
                    )),
                }
            }
            let mut unmet: Vec<_> = unmet.into_keys().collect();
            unmet.sort_unstable();
            for pk in unmet {
                rep.errors.push(format!("{what}: row {pk} has no entry"));
            }
        }
    }

    // Anything not claimed by now is unreachable. `drop_table` leaks blob
    // pages by design, so this is a warning, not an error.
    for id in 0..rep.pages {
        if !claims.owner.contains_key(&id) {
            let kind = r
                .pages
                .with_page(PageId(id), |p| format!("{:?}", p.kind()))
                .unwrap_or_else(|e| format!("unreadable: {e}"));
            rep.warnings
                .push(format!("page {id} ({kind}) unreachable from any root"));
        }
    }
    rep
}

fn walk_free_list(
    pages: &mut impl PageRead,
    head: PageId,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
) {
    let mut node = head;
    while node.is_some() {
        if !claims.claim(node, "free list", &mut rep.errors) {
            return; // out of bounds or cycle back into something claimed
        }
        match pages.with_page(node, |p| (p.kind(), p.get_u64(0))) {
            Ok((kind, next)) => {
                if kind != PageKind::Free {
                    rep.errors
                        .push(format!("free-list page {} has kind {kind:?}", node.0));
                }
                rep.free_pages += 1;
                node = PageId(next);
            }
            Err(e) => {
                rep.errors
                    .push(format!("free-list page {} unreadable: {e}", node.0));
                return;
            }
        }
    }
}

/// Claims and type-checks a heap chain; returns the set of live record ids.
fn walk_heap_chain(
    pages: &mut impl PageRead,
    first: PageId,
    what: &str,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
) -> HashSet<u64> {
    let mut live = HashSet::new();
    let mut node = first;
    while node.is_some() {
        if !claims.claim(node, what, &mut rep.errors) {
            return live;
        }
        let scanned = pages.with_page(node, |p| {
            if p.kind() != PageKind::Heap {
                return Err(format!("{what}: page {} has kind {:?}", node.0, p.kind()));
            }
            let slots = p.get_u16(heap::OFF_SLOT_COUNT);
            let mut rids = Vec::new();
            for slot in 0..slots {
                let (_off, len) = heap::slot_entry(p, slot);
                if len > 0 {
                    rids.push(RecordId { page: node, slot }.pack());
                }
            }
            Ok((rids, PageId(p.get_u64(heap::OFF_NEXT))))
        });
        match scanned {
            Ok(Ok((rids, next))) => {
                live.extend(rids);
                node = next;
            }
            Ok(Err(msg)) => {
                rep.errors.push(msg);
                return live;
            }
            Err(e) => {
                rep.errors
                    .push(format!("{what}: page {} unreadable: {e}", node.0));
                return live;
            }
        }
    }
    live
}

/// Claims and structurally verifies the B+tree rooted at `root`. Returns
/// the in-order `(key, value)` pairs.
fn walk_btree(
    pages: &mut impl PageRead,
    root: PageId,
    what: &str,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
) -> Vec<(u64, u64)> {
    let mut pairs = Vec::new();
    let mut leaves = Vec::new();
    let mut leaf_depth: Option<usize> = None;
    walk_btree_node(
        pages,
        root,
        0,
        what,
        claims,
        rep,
        &mut pairs,
        &mut leaves,
        &mut leaf_depth,
    );
    // Ordering: globally strictly ascending (covers intra-leaf order and
    // subtree separation).
    for w in pairs.windows(2) {
        if w[0].0 >= w[1].0 {
            rep.errors.push(format!(
                "{what}: keys out of order ({} then {})",
                w[0].0, w[1].0
            ));
            break;
        }
    }
    // The sibling chain must enumerate exactly the in-order leaves.
    if let Some(&first) = leaves.first() {
        let mut chain = Vec::new();
        let mut node = first;
        let mut seen = HashSet::new();
        while node.is_some() {
            if !seen.insert(node.0) {
                rep.errors
                    .push(format!("{what}: leaf chain cycles at page {}", node.0));
                break;
            }
            chain.push(node);
            match pages.with_page(node, |p| PageId(p.get_u64(btree::OFF_NEXT_LEAF))) {
                Ok(next) => node = next,
                Err(e) => {
                    rep.errors
                        .push(format!("{what}: leaf page {} unreadable: {e}", node.0));
                    break;
                }
            }
        }
        if chain != leaves {
            rep.errors.push(format!(
                "{what}: leaf sibling chain ({} leaves) disagrees with tree order ({} leaves)",
                chain.len(),
                leaves.len()
            ));
        }
    }
    pairs
}

#[allow(clippy::too_many_arguments)]
fn walk_btree_node(
    pages: &mut impl PageRead,
    node: PageId,
    depth: usize,
    what: &str,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
    pairs: &mut Vec<(u64, u64)>,
    leaves: &mut Vec<PageId>,
    leaf_depth: &mut Option<usize>,
) {
    if !claims.claim(node, what, &mut rep.errors) {
        return;
    }
    let read = pages.with_page(node, |p| {
        let kind = p.kind();
        let nkeys = p.get_u16(btree::OFF_NKEYS) as usize;
        match kind {
            PageKind::BTreeLeaf => {
                let mut kv = Vec::with_capacity(nkeys);
                for i in 0..nkeys {
                    kv.push((
                        p.get_u64(btree::LEAF_ENTRIES + i * 16),
                        p.get_u64(btree::LEAF_ENTRIES + i * 16 + 8),
                    ));
                }
                Ok((true, kv, Vec::new()))
            }
            PageKind::BTreeInternal => {
                let mut children = vec![PageId(p.get_u64(btree::OFF_CHILD0))];
                let mut keys = Vec::with_capacity(nkeys);
                for i in 0..nkeys {
                    keys.push(p.get_u64(btree::INTERNAL_ENTRIES + i * 16));
                    children.push(PageId(p.get_u64(btree::INTERNAL_ENTRIES + i * 16 + 8)));
                }
                let kv = keys.into_iter().map(|k| (k, 0)).collect();
                Ok((false, kv, children))
            }
            other => Err(format!(
                "{what}: page {} in tree has kind {other:?}",
                node.0
            )),
        }
    });
    match read {
        Ok(Ok((is_leaf, kv, children))) => {
            if is_leaf {
                if kv.len() > crate::btree::LEAF_CAP {
                    rep.errors
                        .push(format!("{what}: leaf {} overflows ({})", node.0, kv.len()));
                }
                match *leaf_depth {
                    None => *leaf_depth = Some(depth),
                    Some(d) if d != depth => rep.errors.push(format!(
                        "{what}: unbalanced — leaf {} at depth {depth}, expected {d}",
                        node.0
                    )),
                    _ => {}
                }
                leaves.push(node);
                pairs.extend(kv);
            } else {
                if kv.len() > crate::btree::INTERNAL_CAP {
                    rep.errors.push(format!(
                        "{what}: internal {} overflows ({})",
                        node.0,
                        kv.len()
                    ));
                }
                for child in children {
                    walk_btree_node(
                        pages,
                        child,
                        depth + 1,
                        what,
                        claims,
                        rep,
                        pairs,
                        leaves,
                        leaf_depth,
                    );
                }
            }
        }
        Ok(Err(msg)) => rep.errors.push(msg),
        Err(e) => rep
            .errors
            .push(format!("{what}: page {} unreadable: {e}", node.0)),
    }
}

/// Resolves every index entry to its heap record, decodes it under the
/// schema, chases blob values, and flags orphan heap records. Returns, per
/// secondary index of the table, where each readable row belongs:
/// primary key → bucket of its column value.
#[allow(clippy::too_many_arguments)]
fn check_rows(
    r: &mut Reads<'_, impl PageRead>,
    info: &crate::catalog::TableInfo,
    live: &HashSet<u64>,
    pairs: &[(u64, u64)],
    seen_blobs: &mut HashSet<u64>,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
) -> Vec<HashMap<u64, u64>> {
    let what = format!("table {}", info.name);
    let mut filed = vec![HashMap::new(); info.indexes.len()];
    let mut referenced: HashSet<u64> = HashSet::new();
    for &(key, packed) in pairs {
        if !live.contains(&packed) {
            rep.errors.push(format!(
                "{what}: index key {key} points at dead record {:?}",
                RecordId::unpack(packed)
            ));
            continue;
        }
        referenced.insert(packed);
        let row = match r.row(info, packed) {
            Ok(row) => row,
            Err(e) => {
                rep.errors
                    .push(format!("{what}: row {key} unreadable: {e}"));
                continue;
            }
        };
        if row.first() != Some(&RowValue::U64(key)) {
            rep.errors.push(format!(
                "{what}: row stored under key {key} carries pk {:?}",
                row.first()
            ));
        }
        for (ix, filed) in info.indexes.iter().zip(&mut filed) {
            filed.insert(key, index::bucket(&row[ix.column]));
        }
        for (col, value) in info.schema.columns().iter().zip(&row) {
            if col.ty == ColumnType::Blob {
                if let RowValue::Blob(id) = value {
                    if seen_blobs.insert(id.0) {
                        walk_blob(&mut r.pages, *id, &what, key, claims, rep);
                    }
                }
            }
        }
    }
    for &orphan in live.difference(&referenced) {
        rep.errors.push(format!(
            "{what}: heap record {:?} not referenced by the index",
            RecordId::unpack(orphan)
        ));
    }
    filed
}

fn walk_blob(
    pages: &mut impl PageRead,
    id: crate::blob::BlobId,
    what: &str,
    key: u64,
    claims: &mut Claims,
    rep: &mut IntegrityReport,
) {
    let label = format!("blob {}", id.0);
    let mut node = id.0;
    let mut first = true;
    let mut total: u64 = 0;
    let mut sum: u64 = 0;
    loop {
        let page = PageId(node);
        if !page.is_some() {
            break;
        }
        if !claims.claim(page, &label, &mut rep.errors) {
            // Out of bounds, a cycle within this chain, or a page shared
            // with another structure — all already reported.
            return;
        }
        let read = pages.with_page(page, |p| {
            if p.kind() != PageKind::Blob {
                return Err(format!(
                    "{what}: row {key} {label} page {node} has kind {:?}",
                    p.kind()
                ));
            }
            let next = p.get_u64(blob::OFF_NEXT);
            let (t, chunk, cap) = if first {
                (
                    p.get_u64(blob::FIRST_TOTAL),
                    p.get_u32(blob::FIRST_CHUNK_LEN) as u64,
                    blob::FIRST_CAP as u64,
                )
            } else {
                (
                    0,
                    p.get_u32(blob::CONT_CHUNK_LEN) as u64,
                    blob::CONT_CAP as u64,
                )
            };
            if chunk > cap {
                return Err(format!(
                    "{what}: row {key} {label} page {node} chunk {chunk} exceeds capacity {cap}"
                ));
            }
            Ok((next, t, chunk))
        });
        match read {
            Ok(Ok((next, t, chunk))) => {
                if first {
                    total = t;
                    first = false;
                }
                sum += chunk;
                node = next;
            }
            Ok(Err(msg)) => {
                rep.errors.push(msg);
                return;
            }
            Err(e) => {
                rep.errors.push(format!(
                    "{what}: row {key} {label} page {node} unreadable: {e}"
                ));
                return;
            }
        }
    }
    if sum != total {
        rep.errors.push(format!(
            "{what}: row {key} {label} chunks sum to {sum}, header says {total}"
        ));
    }
    rep.blobs += 1;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{Column, ColumnType, Schema};
    use crate::db::RowValue;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("V", ColumnType::I64),
            Column::new("B", ColumnType::Blob),
        ])
        .unwrap()
    }

    #[test]
    fn fresh_database_is_clean() {
        let db = Database::in_memory().unwrap();
        let rep = db.check_integrity();
        assert!(rep.is_ok(), "errors: {:?}", rep.errors);
        assert_eq!(rep.tables, 0);
    }

    #[test]
    fn populated_database_is_clean() {
        let db = Database::in_memory().unwrap();
        {
            let mut tx = db.begin().unwrap();
            tx.create_table("T", schema()).unwrap();
            for i in 0..700u64 {
                // enough rows to force B+tree splits
                let blob = if i % 50 == 0 {
                    let b = tx.put_blob(&vec![i as u8; 9000]).unwrap();
                    RowValue::Blob(b)
                } else {
                    RowValue::Null
                };
                tx.insert("T", vec![RowValue::Null, RowValue::I64(i as i64), blob])
                    .unwrap();
            }
            tx.commit().unwrap();
        }
        {
            let mut tx = db.begin().unwrap();
            for i in (0..700u64).step_by(3) {
                tx.delete("T", i + 1).unwrap();
            }
            tx.commit().unwrap();
        }
        let rep = db.check_integrity();
        assert!(rep.is_ok(), "errors: {:?}", rep.errors);
        assert_eq!(rep.tables, 1);
        assert!(rep.rows > 0);
        assert!(rep.blobs > 0);
    }

    #[test]
    fn dropped_table_leaves_only_warnings() {
        let db = Database::in_memory().unwrap();
        {
            let mut tx = db.begin().unwrap();
            tx.create_table("T", schema()).unwrap();
            let b = tx.put_blob(&[5u8; 20_000]).unwrap();
            tx.insert(
                "T",
                vec![RowValue::Null, RowValue::I64(1), RowValue::Blob(b)],
            )
            .unwrap();
            tx.commit().unwrap();
        }
        {
            let mut tx = db.begin().unwrap();
            tx.drop_table("T").unwrap();
            tx.commit().unwrap();
        }
        let rep = db.check_integrity();
        assert!(rep.is_ok(), "errors: {:?}", rep.errors);
        // drop_table leaks blob pages by design — they show up as warnings.
        assert!(!rep.warnings.is_empty());
    }
}
