//! The system catalog: table schemas, row encoding, and the persistent
//! table directory.
//!
//! Tables are typed: a [`Schema`] is an ordered list of [`Column`]s, the
//! first of which must be the `u64` primary key (matching the `ID` column
//! every table in the paper's Figure 7 carries). Rows are encoded
//! column-by-column with a one-byte tag so `NULL`s and type errors are
//! detected on decode.

use crate::blob::BlobId;
use crate::error::{Result, StorageError};
use crate::heap::RecordId;
use crate::page::PageId;
use rcmo_obs::wire::{Reader, Writer};

/// Column type of a table schema.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColumnType {
    /// Unsigned 64-bit integer (the mandatory type of the primary key).
    U64,
    /// Signed 64-bit integer.
    I64,
    /// 64-bit float.
    F64,
    /// UTF-8 string.
    Text,
    /// Raw bytes stored inline in the row (small payloads only).
    Bytes,
    /// Reference to a BLOB chain (large payloads).
    Blob,
}

impl ColumnType {
    fn tag(self) -> u8 {
        match self {
            ColumnType::U64 => 0,
            ColumnType::I64 => 1,
            ColumnType::F64 => 2,
            ColumnType::Text => 3,
            ColumnType::Bytes => 4,
            ColumnType::Blob => 5,
        }
    }

    fn from_tag(tag: u8) -> Option<ColumnType> {
        Some(match tag {
            0 => ColumnType::U64,
            1 => ColumnType::I64,
            2 => ColumnType::F64,
            3 => ColumnType::Text,
            4 => ColumnType::Bytes,
            5 => ColumnType::Blob,
            _ => return None,
        })
    }
}

/// One column of a table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Column type.
    pub ty: ColumnType,
}

impl Column {
    /// Convenience constructor.
    pub fn new(name: &str, ty: ColumnType) -> Self {
        Column {
            name: name.to_string(),
            ty,
        }
    }
}

/// An ordered list of columns; the first must be a `U64` primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    columns: Vec<Column>,
}

impl Schema {
    /// Builds and validates a schema.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if columns.is_empty() {
            return Err(StorageError::Catalog("schema has no columns".to_string()));
        }
        if columns[0].ty != ColumnType::U64 {
            return Err(StorageError::Catalog(format!(
                "first column '{}' must be the U64 primary key",
                columns[0].name
            )));
        }
        let mut names = std::collections::HashSet::new();
        for c in &columns {
            if !names.insert(c.name.as_str()) {
                return Err(StorageError::Catalog(format!(
                    "duplicate column '{}'",
                    c.name
                )));
            }
        }
        Ok(Schema { columns })
    }

    /// The columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a column by name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c.name == name)
    }
}

/// A runtime row value.
#[derive(Debug, Clone, PartialEq)]
pub enum RowValue {
    /// SQL NULL (allowed in every column except the primary key).
    Null,
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String.
    Text(String),
    /// Inline bytes.
    Bytes(Vec<u8>),
    /// BLOB reference.
    Blob(BlobId),
}

impl RowValue {
    pub(crate) fn matches(&self, ty: ColumnType) -> bool {
        matches!(
            (self, ty),
            (RowValue::Null, _)
                | (RowValue::U64(_), ColumnType::U64)
                | (RowValue::I64(_), ColumnType::I64)
                | (RowValue::F64(_), ColumnType::F64)
                | (RowValue::Text(_), ColumnType::Text)
                | (RowValue::Bytes(_), ColumnType::Bytes)
                | (RowValue::Blob(_), ColumnType::Blob)
        )
    }

    /// Extracts a `u64` or fails (primary-key access).
    pub fn as_u64(&self) -> Result<u64> {
        match self {
            RowValue::U64(v) => Ok(*v),
            other => Err(StorageError::Catalog(format!(
                "expected U64 value, got {other:?}"
            ))),
        }
    }

    /// Extracts text or fails.
    pub fn as_text(&self) -> Result<&str> {
        match self {
            RowValue::Text(s) => Ok(s),
            other => Err(StorageError::Catalog(format!(
                "expected Text value, got {other:?}"
            ))),
        }
    }

    /// Extracts a BLOB reference or fails.
    pub fn as_blob(&self) -> Result<BlobId> {
        match self {
            RowValue::Blob(b) => Ok(*b),
            other => Err(StorageError::Catalog(format!(
                "expected Blob value, got {other:?}"
            ))),
        }
    }
}

const VAL_NULL: u8 = 0;
const VAL_U64: u8 = 1;
const VAL_I64: u8 = 2;
const VAL_F64: u8 = 3;
const VAL_TEXT: u8 = 4;
const VAL_BYTES: u8 = 5;
const VAL_BLOB: u8 = 6;

/// Appends one value's row encoding: a tag byte, then the payload.
pub(crate) fn encode_value(v: &RowValue, w: &mut Writer) {
    match v {
        RowValue::Null => w.u8(VAL_NULL),
        RowValue::U64(x) => {
            w.u8(VAL_U64);
            w.u64(*x);
        }
        RowValue::I64(x) => {
            w.u8(VAL_I64);
            w.u64(*x as u64);
        }
        RowValue::F64(x) => {
            w.u8(VAL_F64);
            w.f64(*x);
        }
        RowValue::Text(s) => {
            w.u8(VAL_TEXT);
            w.str32(s);
        }
        RowValue::Bytes(b) => {
            w.u8(VAL_BYTES);
            w.bytes32(b);
        }
        RowValue::Blob(b) => {
            w.u8(VAL_BLOB);
            w.u64(b.0);
        }
    }
}

/// Encodes a row against `schema` (arity and type checked; the primary key
/// must be a non-null `U64`).
pub fn encode_row(schema: &Schema, values: &[RowValue]) -> Result<Vec<u8>> {
    if values.len() != schema.arity() {
        return Err(StorageError::Catalog(format!(
            "row has {} values, schema {} columns",
            values.len(),
            schema.arity()
        )));
    }
    if matches!(values[0], RowValue::Null) {
        return Err(StorageError::Catalog(
            "primary key must not be NULL".to_string(),
        ));
    }
    let mut w = Writer::with_capacity(64);
    for (v, c) in values.iter().zip(schema.columns()) {
        if !v.matches(c.ty) {
            return Err(StorageError::Catalog(format!(
                "value {:?} does not match column '{}' of type {:?}",
                v, c.name, c.ty
            )));
        }
        encode_value(v, &mut w);
    }
    Ok(w.into_bytes())
}

/// Decodes a row encoded by [`encode_row`].
pub fn decode_row(schema: &Schema, bytes: &[u8]) -> Result<Vec<RowValue>> {
    let mut values = Vec::with_capacity(schema.arity());
    let mut r = Reader::new(bytes);
    for c in schema.columns() {
        let v = match r.u8()? {
            VAL_NULL => RowValue::Null,
            VAL_U64 => RowValue::U64(r.u64()?),
            VAL_I64 => RowValue::I64(r.u64()? as i64),
            VAL_F64 => RowValue::F64(r.f64()?),
            VAL_TEXT => RowValue::Text(r.str32()?),
            VAL_BYTES => RowValue::Bytes(r.bytes32()?.to_vec()),
            VAL_BLOB => RowValue::Blob(BlobId(r.u64()?)),
            t => {
                return Err(StorageError::Catalog(format!(
                    "unknown value tag {t} in column '{}'",
                    c.name
                )))
            }
        };
        if !v.matches(c.ty) {
            return Err(StorageError::Catalog(format!(
                "decoded {:?} does not match column '{}' of type {:?}",
                v, c.name, c.ty
            )));
        }
        values.push(v);
    }
    r.finish()?;
    Ok(values)
}

/// Persistent description of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableInfo {
    /// Table name (unique).
    pub name: String,
    /// Column layout.
    pub schema: Schema,
    /// First page of the table's heap chain.
    pub heap_root: PageId,
    /// Root page of the primary-key B+tree.
    pub index_root: PageId,
    /// Next auto-assigned primary key.
    pub next_id: u64,
    /// Secondary indexes, in creation order.
    pub indexes: Vec<IndexInfo>,
}

/// One secondary index of a table (see the [`index`](crate::index) module
/// for the entry layout).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexInfo {
    /// Position of the indexed column in the schema (never 0, the primary
    /// key).
    pub column: usize,
    /// Root page of the index's B+tree.
    pub root: PageId,
}

impl TableInfo {
    /// Encodes for storage in the catalog heap. Everything after the
    /// schema is fixed-size for a given set of indexes, so routine updates
    /// (root moves of any tree, id counter bumps) rewrite in place. A table
    /// without indexes encodes no index tail at all — byte for byte the
    /// format-version-1 record.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(64);
        w.str16(&self.name);
        w.u16(self.schema.arity() as u16);
        for c in self.schema.columns() {
            w.str16(&c.name);
            w.u8(c.ty.tag());
        }
        w.u64(self.heap_root.0);
        w.u64(self.index_root.0);
        w.u64(self.next_id);
        if !self.indexes.is_empty() {
            w.u16(self.indexes.len() as u16);
            for ix in &self.indexes {
                w.u16(ix.column as u16);
                w.u64(ix.root.0);
            }
        }
        w.into_bytes()
    }

    /// Decodes a catalog record.
    pub fn decode(bytes: &[u8]) -> Result<TableInfo> {
        let mut r = Reader::new(bytes);
        let name = r.str16()?;
        // A column is its name and a type tag.
        let ncols = r.count16(2 + 1)?;
        let mut columns = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let cname = r.str16()?;
            let ty = ColumnType::from_tag(r.u8()?)
                .ok_or_else(|| StorageError::Catalog("unknown column type tag".to_string()))?;
            columns.push(Column { name: cname, ty });
        }
        let heap_root = PageId(r.u64()?);
        let index_root = PageId(r.u64()?);
        let next_id = r.u64()?;
        // A record that ends here predates secondary indexes; an index is
        // a column number and a root page.
        let nindexes = if r.remaining() > 0 { r.count16(10)? } else { 0 };
        let mut indexes = Vec::with_capacity(nindexes);
        for _ in 0..nindexes {
            let column = r.u16()? as usize;
            if column == 0 || column >= ncols {
                return Err(StorageError::Catalog(format!(
                    "table '{name}' indexes column {column} of {ncols}"
                )));
            }
            indexes.push(IndexInfo {
                column,
                root: PageId(r.u64()?),
            });
        }
        r.finish()?;
        Ok(TableInfo {
            name,
            schema: Schema::new(columns)?,
            heap_root,
            index_root,
            next_id,
            indexes,
        })
    }
}

/// In-memory catalog entry: the persistent info plus where it lives in the
/// catalog heap.
#[derive(Debug, Clone)]
pub struct CatalogEntry {
    /// The table description.
    pub info: TableInfo,
    /// The catalog-heap record that stores it.
    pub record: RecordId,
    /// In-memory insert hint: the heap page the last insert landed on
    /// (not persisted; avoids re-walking the chain on every insert).
    pub hint: Option<PageId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("FLD_NAME", ColumnType::Text),
            Column::new("FLD_QUALITY", ColumnType::I64),
            Column::new("FLD_SCORE", ColumnType::F64),
            Column::new("FLD_META", ColumnType::Bytes),
            Column::new("FLD_DATA", ColumnType::Blob),
        ])
        .unwrap()
    }

    #[test]
    fn schema_validation() {
        assert!(Schema::new(vec![]).is_err());
        assert!(Schema::new(vec![Column::new("ID", ColumnType::Text)]).is_err());
        assert!(Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("ID", ColumnType::Text),
        ])
        .is_err());
        let s = schema();
        assert_eq!(s.arity(), 6);
        assert_eq!(s.column_index("FLD_DATA"), Some(5));
        assert_eq!(s.column_index("nope"), None);
    }

    #[test]
    fn row_roundtrip() {
        let s = schema();
        let row = vec![
            RowValue::U64(7),
            RowValue::Text("ct-scan".to_string()),
            RowValue::I64(-3),
            RowValue::F64(0.25),
            RowValue::Bytes(vec![1, 2, 3]),
            RowValue::Blob(BlobId(42)),
        ];
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(decode_row(&s, &bytes).unwrap(), row);
    }

    #[test]
    fn nulls_roundtrip_except_pk() {
        let s = schema();
        let row = vec![
            RowValue::U64(1),
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
        ];
        let bytes = encode_row(&s, &row).unwrap();
        assert_eq!(decode_row(&s, &bytes).unwrap(), row);
        let bad = vec![
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
            RowValue::Null,
        ];
        assert!(encode_row(&s, &bad).is_err());
    }

    #[test]
    fn arity_and_type_mismatches_rejected() {
        let s = schema();
        assert!(encode_row(&s, &[RowValue::U64(1)]).is_err());
        let wrong = vec![
            RowValue::U64(1),
            RowValue::U64(2), // should be Text
            RowValue::I64(0),
            RowValue::F64(0.0),
            RowValue::Bytes(vec![]),
            RowValue::Blob(BlobId(0)),
        ];
        assert!(encode_row(&s, &wrong).is_err());
    }

    #[test]
    fn decode_rejects_corruption() {
        let s = schema();
        let row = vec![
            RowValue::U64(7),
            RowValue::Text("x".to_string()),
            RowValue::I64(0),
            RowValue::F64(0.0),
            RowValue::Bytes(vec![]),
            RowValue::Blob(BlobId(1)),
        ];
        let bytes = encode_row(&s, &row).unwrap();
        assert!(decode_row(&s, &bytes[..bytes.len() - 1]).is_err());
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(decode_row(&s, &extra).is_err());
        let mut bad_tag = bytes;
        bad_tag[0] = 99;
        assert!(decode_row(&s, &bad_tag).is_err());
    }

    #[test]
    fn table_info_roundtrip_and_stable_size() {
        let info = TableInfo {
            name: "IMAGE_OBJECTS_TABLE".to_string(),
            schema: schema(),
            heap_root: PageId(5),
            index_root: PageId(9),
            next_id: 17,
            indexes: vec![IndexInfo {
                column: 1,
                root: PageId(11),
            }],
        };
        let bytes = info.encode();
        assert_eq!(TableInfo::decode(&bytes).unwrap(), info);
        // Bumping counters keeps the encoded size identical (in-place update).
        let mut bumped = info.clone();
        bumped.next_id = 99_999;
        bumped.index_root = PageId(12345);
        bumped.indexes[0].root = PageId(67_890);
        assert_eq!(bumped.encode().len(), bytes.len());
    }

    #[test]
    fn record_without_index_tail_is_the_v1_record() {
        // Format version 1, written out by hand: name, one column, three u64s.
        let mut v1 = Vec::new();
        v1.extend_from_slice(&1u16.to_le_bytes());
        v1.extend_from_slice(b"T");
        v1.extend_from_slice(&2u16.to_le_bytes());
        for (name, tag) in [("ID", 0u8), ("NAME", 3)] {
            v1.extend_from_slice(&(name.len() as u16).to_le_bytes());
            v1.extend_from_slice(name.as_bytes());
            v1.push(tag);
        }
        for n in [5u64, 9, 17] {
            v1.extend_from_slice(&n.to_le_bytes());
        }
        let info = TableInfo::decode(&v1).unwrap();
        assert!(info.indexes.is_empty());
        assert_eq!(
            (info.heap_root, info.index_root, info.next_id),
            (PageId(5), PageId(9), 17)
        );
        assert_eq!(info.encode(), v1, "un-indexed tables still write v1 bytes");

        // The tail may only name a real, non-key column.
        for bad_column in [0u16, 2] {
            let mut bad = v1.clone();
            bad.extend_from_slice(&1u16.to_le_bytes());
            bad.extend_from_slice(&bad_column.to_le_bytes());
            bad.extend_from_slice(&11u64.to_le_bytes());
            assert!(TableInfo::decode(&bad).is_err(), "column {bad_column}");
        }
    }

    #[test]
    fn value_accessors() {
        assert_eq!(RowValue::U64(5).as_u64().unwrap(), 5);
        assert!(RowValue::Text("x".into()).as_u64().is_err());
        assert_eq!(RowValue::Text("x".into()).as_text().unwrap(), "x");
        assert_eq!(RowValue::Blob(BlobId(3)).as_blob().unwrap(), BlobId(3));
        assert!(RowValue::Null.as_blob().is_err());
    }
}
