//! # rcmo-mediadb — the object-relational multimedia database layer
//!
//! Implements the paper's Figure-7 schema on top of `rcmo-storage`:
//! a master `MULTIMEDIA_OBJECTS_TABLE` lists every supported media type
//! (name, MIME, access type, description) together with the name of the
//! *object table* that holds objects of that type. Each object table has its
//! own columns plus BLOB fields for the actual payload:
//!
//! * `IMAGE_OBJECTS_TABLE` — `ID, FLD_QUALITY, FLD_TEXTS, FLD_CM, FLD_DATA`
//! * `AUDIO_OBJECTS_TABLE` — `ID, FLD_FILENAME, FLD_SECTORS, FLD_DATA`
//! * `CMP_OBJECTS_TABLE` — `ID, FLD_FILENAME, FLD_FILESIZE,
//!   FLD_CURRENTPOSITION, FLD_HEADER, FLD_DATA`
//! * `DOC_OBJECTS_TABLE` — serialized multimedia documents (structure +
//!   CP-network), stored as BLOBs like everything else.
//!
//! "This approach was adopted in order to allow addition of new data types
//! as the system evolves" — [`MediaDb::register_type`] adds a type and its
//! object table at runtime.
//!
//! Every operation is permission-checked ([`acl`]), mirroring the paper's
//! "providing that the client has the appropriate permissions". The check
//! and the media-type lookup are keyed: `USERS_TABLE.NAME` and the master
//! table's `FLD_NAME` carry secondary indexes, so neither scans.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acl;
pub mod error;
pub mod objects;
pub mod schema;

pub use acl::AccessLevel;
pub use error::MediaError;
pub use objects::{AudioObject, CompoundObject, DocumentObject, ImageObject, ObjectSummary};
pub use schema::MediaType;

use error::Result;
use rcmo_storage::Database;
use std::sync::Arc;

/// Handle to the multimedia database. Cheap to clone (shared `Database`).
#[derive(Debug, Clone)]
pub struct MediaDb {
    db: Arc<Database>,
}

impl MediaDb {
    /// Opens a file-backed multimedia database, installing the Figure-7
    /// schema (and the bootstrap `admin` user) if it is missing.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<MediaDb> {
        Self::with_database(Database::open(path)?)
    }

    /// Creates an ephemeral in-memory multimedia database.
    pub fn in_memory() -> Result<MediaDb> {
        Self::with_database(Database::in_memory()?)
    }

    /// Wraps an existing storage database, installing the schema if absent.
    /// This is the way in for explicit storage-engine options or backends:
    /// open with [`Database::open_with`] and hand the result over.
    pub fn with_database(db: Database) -> Result<MediaDb> {
        let db = Arc::new(db);
        schema::install(&db)?;
        acl::install(&db)?;
        Ok(MediaDb { db })
    }

    /// The underlying storage database.
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Lists the registered media types from the master table.
    pub fn media_types(&self) -> Result<Vec<MediaType>> {
        schema::media_types(&self.db)
    }

    /// Registers a new media type with its own object table (the paper's
    /// extensibility story). Requires [`AccessLevel::Admin`].
    pub fn register_type(
        &self,
        user: &str,
        ty: &MediaType,
        object_columns: Vec<rcmo_storage::Column>,
    ) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Admin)?;
        schema::register_type(&self.db, ty, object_columns)
    }

    // ------------------------------------------------------------------
    // Users.

    /// Adds (or updates) a user with an access level. Requires admin.
    pub fn put_user(&self, admin: &str, user: &str, level: AccessLevel) -> Result<()> {
        acl::require(&self.db, admin, AccessLevel::Admin)?;
        acl::put_user(&self.db, user, level)
    }

    /// The access level of a user, if registered.
    pub fn user_level(&self, user: &str) -> Result<Option<AccessLevel>> {
        acl::user_level(&self.db, user)
    }

    /// Fails with [`MediaError::Denied`] unless `user` holds at least
    /// `level` — the check every operation here opens with, for callers
    /// that gate work of their own (joining a room, announcing) on a
    /// database permission. One keyed lookup; no listing, no payload.
    pub fn require(&self, user: &str, level: AccessLevel) -> Result<()> {
        acl::require(&self.db, user, level)
    }

    // ------------------------------------------------------------------
    // Images.

    /// Stores an image object; returns its id. Requires write access.
    pub fn insert_image(&self, user: &str, img: &ImageObject) -> Result<u64> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::insert_image(&self.db, img)
    }

    /// Fetches an image object (including its payload).
    pub fn get_image(&self, user: &str, id: u64) -> Result<ImageObject> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_image(&self.db, id)
    }

    /// Fetches only an image's payload bytes, skipping the metadata
    /// columns — the one-`begin_read` storage fetch behind the server's
    /// room object cache (counted in `mediadb.image.data_read.count`).
    pub fn get_image_data(&self, user: &str, id: u64) -> Result<Vec<u8>> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_image_data(&self.db, id)
    }

    /// Fetches only a prefix of an image payload (progressive transfer of a
    /// layered bitstream).
    pub fn get_image_prefix(&self, user: &str, id: u64, bytes: usize) -> Result<Vec<u8>> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_image_prefix(&self.db, id, bytes)
    }

    /// Replaces an image object in place (same id) — atomic: a failed or
    /// interrupted update leaves the stored object unchanged. Requires
    /// write access.
    pub fn update_image(&self, user: &str, id: u64, img: &ImageObject) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::update_image(&self.db, id, img)
    }

    /// Deletes an image object and frees its BLOB. Requires write access.
    pub fn delete_image(&self, user: &str, id: u64) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::delete_image(&self.db, id)
    }

    // ------------------------------------------------------------------
    // Audio.

    /// Stores an audio object; returns its id. Requires write access.
    pub fn insert_audio(&self, user: &str, audio: &AudioObject) -> Result<u64> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::insert_audio(&self.db, audio)
    }

    /// Fetches an audio object.
    pub fn get_audio(&self, user: &str, id: u64) -> Result<AudioObject> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_audio(&self.db, id)
    }

    /// Replaces an audio object's analysis sectors (`FLD_SECTORS`).
    pub fn update_audio_sectors(&self, user: &str, id: u64, sectors: &[u8]) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::update_audio_sectors(&self.db, id, sectors)
    }

    /// Deletes an audio object and frees its BLOBs.
    pub fn delete_audio(&self, user: &str, id: u64) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::delete_audio(&self.db, id)
    }

    // ------------------------------------------------------------------
    // Compound objects.

    /// Stores a compound object; returns its id.
    pub fn insert_compound(&self, user: &str, cmp: &CompoundObject) -> Result<u64> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::insert_compound(&self.db, cmp)
    }

    /// Fetches a compound object.
    pub fn get_compound(&self, user: &str, id: u64) -> Result<CompoundObject> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_compound(&self.db, id)
    }

    // ------------------------------------------------------------------
    // Documents (serialized structure + CP-network).

    /// Stores a serialized multimedia document; returns its id.
    pub fn insert_document(&self, user: &str, doc: &DocumentObject) -> Result<u64> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::insert_document(&self.db, doc)
    }

    /// Fetches a serialized multimedia document.
    pub fn get_document(&self, user: &str, id: u64) -> Result<DocumentObject> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::get_document(&self.db, id)
    }

    /// Replaces a stored document's payload (e.g. after a global CP-net
    /// update).
    pub fn update_document(&self, user: &str, id: u64, doc: &DocumentObject) -> Result<()> {
        acl::require(&self.db, user, AccessLevel::Write)?;
        objects::update_document(&self.db, id, doc)
    }

    /// Lists documents (id + title, no payload).
    pub fn list_documents(&self, user: &str) -> Result<Vec<ObjectSummary>> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::list_documents(&self.db)
    }

    /// Lists all objects of a type's object table (id + label), the
    /// "show all objects stored in the database" client request.
    pub fn list_objects(&self, user: &str, type_name: &str) -> Result<Vec<ObjectSummary>> {
        acl::require(&self.db, user, AccessLevel::Read)?;
        objects::list_objects(&self.db, type_name)
    }
}

#[cfg(test)]
mod tests;
