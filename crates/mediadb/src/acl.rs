//! Minimal access control: per-user levels checked on every operation.
//!
//! The paper grants clients operations "providing that the client has the
//! appropriate permissions"; this module implements the smallest useful
//! model — three ordered levels stored in a `USERS_TABLE`:
//!
//! * `Read` — fetch objects and documents,
//! * `Write` — additionally store/update/delete objects,
//! * `Admin` — additionally manage users and register media types.
//!
//! A fresh database is bootstrapped with the user `admin` at `Admin` level.
//!
//! `USERS_TABLE` carries a secondary index on `NAME`, and every check here
//! is one keyed `find` through it: a permission costs the same whether the
//! community has eight users or eight thousand. There is deliberately no
//! cache of levels beside the table — the table is the one source of truth.

use crate::error::{MediaError, Result};
use rcmo_storage::{Column, ColumnType, Database, RowValue, Schema};

/// Name of the users table.
pub const USERS_TABLE: &str = "USERS_TABLE";

/// Ordered access levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum AccessLevel {
    /// May fetch objects and documents.
    Read,
    /// May also create, update, and delete objects.
    Write,
    /// May also manage users and register media types.
    Admin,
}

impl AccessLevel {
    fn tag(self) -> i64 {
        match self {
            AccessLevel::Read => 0,
            AccessLevel::Write => 1,
            AccessLevel::Admin => 2,
        }
    }

    fn from_tag(tag: i64) -> Option<AccessLevel> {
        Some(match tag {
            0 => AccessLevel::Read,
            1 => AccessLevel::Write,
            2 => AccessLevel::Admin,
            _ => return None,
        })
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            AccessLevel::Read => "read",
            AccessLevel::Write => "write",
            AccessLevel::Admin => "admin",
        }
    }
}

fn users_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("NAME", ColumnType::Text),
        Column::new("LEVEL", ColumnType::I64),
    ])
    .expect("static schema is valid")
}

fn user_row(user: &str, level: AccessLevel) -> Vec<RowValue> {
    vec![
        RowValue::Null,
        RowValue::Text(user.to_string()),
        RowValue::I64(level.tag()),
    ]
}

/// Creates the users table with the bootstrap admin, or — on a database
/// from before secondary indexes — the missing index on `NAME`. Idempotent.
pub fn install(db: &Database) -> Result<()> {
    let mut tx = db.begin()?;
    if !tx.table_names().iter().any(|t| t == USERS_TABLE) {
        tx.create_table(USERS_TABLE, users_schema())?;
        tx.create_index(USERS_TABLE, "NAME")?;
        tx.insert(USERS_TABLE, user_row("admin", AccessLevel::Admin))?;
    } else if tx.indexes(USERS_TABLE)?.is_empty() {
        tx.create_index(USERS_TABLE, "NAME")?;
    } else {
        return Ok(());
    }
    tx.commit()?;
    Ok(())
}

/// Adds or updates a user's level.
pub fn put_user(db: &Database, user: &str, level: AccessLevel) -> Result<()> {
    let mut tx = db.begin()?;
    let existing = tx.find(USERS_TABLE, "NAME", &RowValue::Text(user.to_string()))?;
    match existing.first() {
        Some(row) => tx.update(USERS_TABLE, row[0].as_u64()?, user_row(user, level))?,
        None => drop(tx.insert(USERS_TABLE, user_row(user, level))?),
    }
    tx.commit()?;
    Ok(())
}

/// Looks a user's level up.
pub fn user_level(db: &Database, user: &str) -> Result<Option<AccessLevel>> {
    let tx = db.begin_read()?;
    let rows = tx.find(USERS_TABLE, "NAME", &RowValue::Text(user.to_string()))?;
    let Some(row) = rows.first() else {
        return Ok(None);
    };
    // An unknown tag is corruption (or a newer format), not "no such user".
    match row[2] {
        RowValue::I64(tag) => AccessLevel::from_tag(tag),
        _ => None,
    }
    .map(Some)
    .ok_or_else(|| MediaError::Malformed(format!("user level column holds {:?}", row[2])))
}

/// Fails unless `user` holds at least `required`.
pub fn require(db: &Database, user: &str, required: AccessLevel) -> Result<()> {
    match user_level(db, user)? {
        Some(level) if level >= required => Ok(()),
        _ => Err(MediaError::Denied {
            user: user.to_string(),
            required: required.name(),
        }),
    }
}
