//! Installation and maintenance of the Figure-7 schema.

use crate::error::{MediaError, Result};
use rcmo_storage::{Column, ColumnType, Database, RowValue, Schema};

/// Name of the master table listing all media types.
pub const MASTER_TABLE: &str = "MULTIMEDIA_OBJECTS_TABLE";
/// Name of the image object table.
pub const IMAGE_TABLE: &str = "IMAGE_OBJECTS_TABLE";
/// Name of the audio object table.
pub const AUDIO_TABLE: &str = "AUDIO_OBJECTS_TABLE";
/// Name of the compound object table.
pub const CMP_TABLE: &str = "CMP_OBJECTS_TABLE";
/// Name of the multimedia-document object table.
pub const DOC_TABLE: &str = "DOC_OBJECTS_TABLE";

/// One row of the master table: a supported media type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MediaType {
    /// Type name ("Image", "Audio", ...). Unique.
    pub name: String,
    /// MIME family ("image/layered", "audio/pcm", ...).
    pub mime: String,
    /// Access type hint ("stream", "whole"); the paper's FLD_ACCESSTYPE.
    pub access_type: String,
    /// Name of the table holding this type's objects.
    pub object_table: String,
    /// Free-form description.
    pub description: String,
}

fn master_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_NAME", ColumnType::Text),
        Column::new("FLD_MIME", ColumnType::Text),
        Column::new("FLD_ACCESSTYPE", ColumnType::Text),
        Column::new("OBJECTTABLES", ColumnType::Text),
        Column::new("DESCRIPTION", ColumnType::Text),
    ])
    .expect("static schema is valid")
}

fn image_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_NAME", ColumnType::Text),
        Column::new("FLD_QUALITY", ColumnType::I64),
        Column::new("FLD_TEXTS", ColumnType::Text),
        Column::new("FLD_CM", ColumnType::Bytes),
        Column::new("FLD_DATA", ColumnType::Blob),
    ])
    .expect("static schema is valid")
}

fn audio_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_FILENAME", ColumnType::Text),
        Column::new("FLD_SECTORS", ColumnType::Blob),
        Column::new("FLD_DATA", ColumnType::Blob),
    ])
    .expect("static schema is valid")
}

fn cmp_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_FILENAME", ColumnType::Text),
        Column::new("FLD_FILESIZE", ColumnType::U64),
        Column::new("FLD_CURRENTPOSITION", ColumnType::U64),
        Column::new("FLD_HEADER", ColumnType::Blob),
        Column::new("FLD_DATA", ColumnType::Blob),
    ])
    .expect("static schema is valid")
}

fn doc_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_TITLE", ColumnType::Text),
        Column::new("FLD_DATA", ColumnType::Blob),
    ])
    .expect("static schema is valid")
}

impl MediaType {
    fn from_row(r: &[RowValue]) -> Result<MediaType> {
        Ok(MediaType {
            name: text(r, 1)?,
            mime: text(r, 2)?,
            access_type: text(r, 3)?,
            object_table: text(r, 4)?,
            description: text(r, 5)?,
        })
    }

    fn to_row(&self) -> Vec<RowValue> {
        let text = |s: &str| RowValue::Text(s.to_string());
        vec![
            RowValue::Null,
            text(&self.name),
            text(&self.mime),
            text(&self.access_type),
            text(&self.object_table),
            text(&self.description),
        ]
    }
}

/// Installs the master table (indexed on `FLD_NAME`), the built-in object
/// tables, and their master rows — or, on a database from before secondary
/// indexes, the missing index. Idempotent.
pub fn install(db: &Database) -> Result<()> {
    let mut tx = db.begin()?;
    if tx.table_names().iter().any(|t| t == MASTER_TABLE) {
        if tx.indexes(MASTER_TABLE)?.is_empty() {
            tx.create_index(MASTER_TABLE, "FLD_NAME")?;
            tx.commit()?;
        }
        return Ok(()); // already installed; tx drops as a no-op
    }
    tx.create_table(MASTER_TABLE, master_schema())?;
    tx.create_index(MASTER_TABLE, "FLD_NAME")?;
    tx.create_table(IMAGE_TABLE, image_schema())?;
    tx.create_table(AUDIO_TABLE, audio_schema())?;
    tx.create_table(CMP_TABLE, cmp_schema())?;
    tx.create_table(DOC_TABLE, doc_schema())?;
    for (name, mime, access, table, desc) in [
        (
            "Image",
            "image/layered",
            "stream",
            IMAGE_TABLE,
            "layered multi-resolution images",
        ),
        (
            "Audio",
            "audio/pcm",
            "stream",
            AUDIO_TABLE,
            "voice and audio fragments",
        ),
        (
            "Compound",
            "application/octet-stream",
            "whole",
            CMP_TABLE,
            "compound binary objects",
        ),
        (
            "Document",
            "application/x-rcmo-document",
            "whole",
            DOC_TABLE,
            "multimedia documents with CP-networks",
        ),
    ] {
        let ty = MediaType {
            name: name.to_string(),
            mime: mime.to_string(),
            access_type: access.to_string(),
            object_table: table.to_string(),
            description: desc.to_string(),
        };
        tx.insert(MASTER_TABLE, ty.to_row())?;
    }
    tx.commit()?;
    Ok(())
}

/// Reads the registered media types.
pub fn media_types(db: &Database) -> Result<Vec<MediaType>> {
    let rows = db.begin_read()?.scan(MASTER_TABLE)?;
    rows.iter().map(|r| MediaType::from_row(r)).collect()
}

fn by_name(name: &str) -> RowValue {
    RowValue::Text(name.to_string())
}

/// Looks up a media type by name.
pub fn media_type_by_name(db: &Database, name: &str) -> Result<MediaType> {
    let rows = db
        .begin_read()?
        .find(MASTER_TABLE, "FLD_NAME", &by_name(name))?;
    match rows.first() {
        Some(row) => MediaType::from_row(row),
        None => Err(MediaError::Type(format!("unknown media type '{name}'"))),
    }
}

/// Registers a new media type and creates its object table.
///
/// The object table's first column must be the `U64` primary key; a trailing
/// `FLD_DATA` BLOB column is conventional but not enforced.
pub fn register_type(db: &Database, ty: &MediaType, columns: Vec<Column>) -> Result<()> {
    let mut tx = db.begin()?;
    if !tx
        .find(MASTER_TABLE, "FLD_NAME", &by_name(&ty.name))?
        .is_empty()
    {
        return Err(MediaError::Type(format!(
            "media type '{}' already registered",
            ty.name
        )));
    }
    tx.create_table(&ty.object_table, Schema::new(columns)?)?;
    tx.insert(MASTER_TABLE, ty.to_row())?;
    tx.commit()?;
    Ok(())
}

pub(crate) fn text(row: &[RowValue], i: usize) -> Result<String> {
    match row.get(i) {
        Some(RowValue::Text(s)) => Ok(s.clone()),
        other => Err(MediaError::Malformed(format!(
            "expected Text in column {i}, got {other:?}"
        ))),
    }
}
