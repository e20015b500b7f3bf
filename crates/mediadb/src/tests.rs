use super::*;
use rcmo_storage::{Column, ColumnType, RowValue};

fn fresh() -> MediaDb {
    MediaDb::in_memory().unwrap()
}

fn sample_image(n: usize) -> ImageObject {
    ImageObject {
        name: "ct-scan".to_string(),
        quality: 3,
        texts: "lesion marker".to_string(),
        cm: vec![9, 9, 9],
        data: (0..n).map(|i| (i % 253) as u8).collect(),
    }
}

#[test]
fn schema_installed_with_builtin_types() {
    let db = fresh();
    let types = db.media_types().unwrap();
    let names: Vec<&str> = types.iter().map(|t| t.name.as_str()).collect();
    assert!(names.contains(&"Image"));
    assert!(names.contains(&"Audio"));
    assert!(names.contains(&"Compound"));
    assert!(names.contains(&"Document"));
    let img = types.iter().find(|t| t.name == "Image").unwrap();
    assert_eq!(img.object_table, "IMAGE_OBJECTS_TABLE");
}

#[test]
fn install_is_idempotent() {
    let db = fresh();
    // Re-running install on the shared database must not duplicate rows.
    schema::install(db.database()).unwrap();
    assert_eq!(db.media_types().unwrap().len(), 4);
}

#[test]
fn image_crud_roundtrip() {
    let db = fresh();
    let img = sample_image(70_000);
    let id = db.insert_image("admin", &img).unwrap();
    let back = db.get_image("admin", id).unwrap();
    assert_eq!(back, img);
    let prefix = db.get_image_prefix("admin", id, 1_000).unwrap();
    assert_eq!(prefix, &img.data[..1_000]);
    db.delete_image("admin", id).unwrap();
    assert!(matches!(
        db.get_image("admin", id),
        Err(MediaError::NotFound { .. })
    ));
}

#[test]
fn image_update_in_place_keeps_id() {
    let db = fresh();
    let img = sample_image(50_000);
    let id = db.insert_image("admin", &img).unwrap();
    let mut changed = img.clone();
    changed.cm = vec![1, 2, 3, 4];
    changed.data = vec![7u8; 80_000];
    db.update_image("admin", id, &changed).unwrap();
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
    // Updating a missing id fails cleanly and changes nothing.
    assert!(matches!(
        db.update_image("admin", id + 99, &changed),
        Err(MediaError::NotFound { .. })
    ));
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
    // Write access is required.
    db.put_user("admin", "viewer", AccessLevel::Read).unwrap();
    assert!(db.update_image("viewer", id, &img).is_err());
    assert_eq!(db.get_image("admin", id).unwrap(), changed);
}

#[test]
fn audio_crud_roundtrip() {
    let db = fresh();
    let audio = AudioObject {
        filename: "consult.pcm".to_string(),
        sectors: vec![1, 2, 3, 4],
        data: (0..30_000).map(|i| (i % 200) as u8).collect(),
    };
    let id = db.insert_audio("admin", &audio).unwrap();
    assert_eq!(db.get_audio("admin", id).unwrap(), audio);
    db.delete_audio("admin", id).unwrap();
    assert!(db.get_audio("admin", id).is_err());
}

#[test]
fn audio_sector_update() {
    let db = fresh();
    let audio = AudioObject {
        filename: "a.pcm".to_string(),
        sectors: vec![],
        data: vec![1, 2, 3, 4],
    };
    let id = db.insert_audio("admin", &audio).unwrap();
    db.update_audio_sectors("admin", id, &[9, 9, 9]).unwrap();
    let back = db.get_audio("admin", id).unwrap();
    assert_eq!(back.sectors, vec![9, 9, 9]);
    assert_eq!(back.data, vec![1, 2, 3, 4], "payload untouched");
    assert!(db.update_audio_sectors("admin", 999, &[]).is_err());
}

#[test]
fn compound_roundtrip() {
    let db = fresh();
    let cmp = CompoundObject {
        filename: "report.bin".to_string(),
        filesize: 12_345,
        current_position: 77,
        header: vec![0xCA, 0xFE],
        data: vec![0u8; 12_345],
    };
    let id = db.insert_compound("admin", &cmp).unwrap();
    assert_eq!(db.get_compound("admin", id).unwrap(), cmp);
}

#[test]
fn document_store_update_list() {
    let db = fresh();
    let doc = DocumentObject {
        title: "Patient 1".to_string(),
        data: vec![1, 2, 3],
    };
    let id = db.insert_document("admin", &doc).unwrap();
    assert_eq!(db.get_document("admin", id).unwrap(), doc);
    let doc2 = DocumentObject {
        title: "Patient 1 (rev)".to_string(),
        data: vec![4; 10_000],
    };
    db.update_document("admin", id, &doc2).unwrap();
    assert_eq!(db.get_document("admin", id).unwrap(), doc2);
    let list = db.list_documents("admin").unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].label, "Patient 1 (rev)");
    assert_eq!(list[0].bytes, 10_000);
}

#[test]
fn list_objects_by_type() {
    let db = fresh();
    db.insert_image("admin", &sample_image(500)).unwrap();
    db.insert_image("admin", &sample_image(700)).unwrap();
    let list = db.list_objects("admin", "Image").unwrap();
    assert_eq!(list.len(), 2);
    assert!(list.iter().all(|o| o.label == "ct-scan"));
    assert_eq!(list[0].bytes, 500);
    assert!(db.list_objects("admin", "Nope").is_err());
}

#[test]
fn permissions_enforced() {
    let db = fresh();
    // Unknown user: denied even for reads.
    assert!(matches!(
        db.get_image("nobody", 1),
        Err(MediaError::Denied { .. })
    ));
    db.put_user("admin", "viewer", AccessLevel::Read).unwrap();
    db.put_user("admin", "editor", AccessLevel::Write).unwrap();
    // Viewer can read but not write.
    assert!(matches!(
        db.insert_image("viewer", &sample_image(10)),
        Err(MediaError::Denied { .. })
    ));
    let id = db.insert_image("editor", &sample_image(10)).unwrap();
    assert!(db.get_image("viewer", id).is_ok());
    // Only admin manages users.
    assert!(matches!(
        db.put_user("editor", "x", AccessLevel::Read),
        Err(MediaError::Denied { .. })
    ));
    // Levels can be upgraded.
    db.put_user("admin", "viewer", AccessLevel::Write).unwrap();
    assert!(db.insert_image("viewer", &sample_image(10)).is_ok());
    assert_eq!(db.user_level("viewer").unwrap(), Some(AccessLevel::Write));
    assert_eq!(db.user_level("ghost").unwrap(), None);
}

#[test]
fn register_new_media_type() {
    let db = fresh();
    let ty = MediaType {
        name: "Video".to_string(),
        mime: "video/mjpeg".to_string(),
        access_type: "stream".to_string(),
        object_table: "VIDEO_OBJECTS_TABLE".to_string(),
        description: "ultrasound clips".to_string(),
    };
    db.register_type(
        "admin",
        &ty,
        vec![
            Column::new("ID", ColumnType::U64),
            Column::new("FLD_NAME", ColumnType::Text),
            Column::new("FLD_FPS", ColumnType::I64),
            Column::new("FLD_DATA", ColumnType::Blob),
        ],
    )
    .unwrap();
    assert_eq!(db.media_types().unwrap().len(), 5);
    // The new object table is usable through the raw database handle.
    let mut tx = db.database().begin().unwrap();
    let blob = tx.put_blob(&[1, 2, 3]).unwrap();
    let id = tx
        .insert(
            "VIDEO_OBJECTS_TABLE",
            vec![
                RowValue::Null,
                RowValue::Text("us-clip".to_string()),
                RowValue::I64(25),
                RowValue::Blob(blob),
            ],
        )
        .unwrap();
    tx.commit().unwrap();
    let list = db.list_objects("admin", "Video").unwrap();
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].id, id);
    assert_eq!(list[0].bytes, 3);
    // Duplicate registration rejected.
    assert!(db
        .register_type("admin", &ty, vec![Column::new("ID", ColumnType::U64)])
        .is_err());
    // Non-admin rejected.
    assert!(matches!(
        db.register_type("nobody", &ty, vec![Column::new("ID", ColumnType::U64)]),
        Err(MediaError::Denied { .. })
    ));
}

#[test]
fn persistence_of_media_objects() {
    let dir = std::env::temp_dir().join(format!("rcmo-mdb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("media.db");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo_storage::db::wal_path_for(&path));
    let img = sample_image(40_000);
    let id;
    {
        let db = MediaDb::open(&path).unwrap();
        id = db.insert_image("admin", &img).unwrap();
    }
    {
        let db = MediaDb::open(&path).unwrap();
        assert_eq!(db.get_image("admin", id).unwrap(), img);
        // Built-in types are not re-inserted on reopen.
        assert_eq!(db.media_types().unwrap().len(), 4);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo_storage::db::wal_path_for(&path));
}

// ---------------------------------------------------------------------------
// Keyed permission lookups
// ---------------------------------------------------------------------------

/// Page requests (hits and misses alike) one call of `f` makes.
fn page_requests<T>(db: &MediaDb, f: impl FnOnce() -> T) -> u64 {
    let before = db.database().pool_stats();
    f();
    let after = db.database().pool_stats();
    (after.hits + after.misses) - (before.hits + before.misses)
}

fn with_users(n: usize) -> MediaDb {
    let db = fresh();
    for i in 0..n {
        db.put_user("admin", &format!("user-{i}"), AccessLevel::Read)
            .unwrap();
    }
    db
}

#[test]
fn permission_check_cost_does_not_grow_with_the_user_base() {
    let small = with_users(8);
    let large = with_users(4_096);
    let few = page_requests(&small, || small.user_level("user-7").unwrap());
    let many = page_requests(&large, || large.user_level("user-4095").unwrap());
    // 4 096 entries need a second level in both trees a lookup descends
    // (the index on NAME, then the primary key): per tree one more node,
    // which the descent reads twice, plus the range's peek at the sibling
    // leaf. A scan would read every heap page and leaf of the table.
    assert!(
        many <= few + 5,
        "{few} page requests at 8 users, {many} at 4 096"
    );
    let missing = page_requests(&large, || large.user_level("nobody").unwrap());
    assert!(missing <= many, "{missing} > {many}");
    assert!(matches!(
        large.require("user-4095", AccessLevel::Write),
        Err(MediaError::Denied { .. })
    ));
    large.require("user-4095", AccessLevel::Read).unwrap();
}

#[test]
fn unknown_level_tag_is_malformed_not_unregistered() {
    let db = fresh();
    let mut tx = db.database().begin().unwrap();
    tx.insert(
        acl::USERS_TABLE,
        vec![
            RowValue::Null,
            RowValue::Text("from-the-future".into()),
            RowValue::I64(7),
        ],
    )
    .unwrap();
    tx.commit().unwrap();
    for res in [
        db.user_level("from-the-future").map(drop),
        db.require("from-the-future", AccessLevel::Read),
    ] {
        assert!(matches!(res, Err(MediaError::Malformed(_))), "{res:?}");
    }
}

/// A database as a binary from before secondary indexes left it: the same
/// tables and rows as a fresh one plus `users` accounts, and no index.
fn pre_index_database(source: rcmo_storage::Source, users: usize) -> Database {
    let modern = fresh();
    let rd = modern.database().begin_read().unwrap();
    let old = Database::open_with(source, rcmo_storage::DbOptions::default()).unwrap();
    let mut tx = old.begin().unwrap();
    for table in rd.table_names() {
        tx.create_table(&table, rd.schema(&table).unwrap()).unwrap();
        for row in rd.scan(&table).unwrap() {
            tx.insert(&table, row).unwrap();
        }
    }
    for i in 0..users {
        let name = RowValue::Text(format!("user-{i}"));
        tx.insert(
            acl::USERS_TABLE,
            vec![RowValue::Null, name, RowValue::I64(0)],
        )
        .unwrap();
    }
    tx.commit().unwrap();
    old
}

#[test]
fn pre_index_database_gets_its_indexes_on_open() {
    let old = pre_index_database(rcmo_storage::Source::Memory, 300);
    for table in [acl::USERS_TABLE, schema::MASTER_TABLE] {
        assert!(old.begin().unwrap().indexes(table).unwrap().is_empty());
    }
    let db = MediaDb::with_database(old).unwrap();
    let tx = db.database().begin().unwrap();
    assert_eq!(tx.indexes(acl::USERS_TABLE).unwrap(), ["NAME"]);
    assert_eq!(tx.indexes(schema::MASTER_TABLE).unwrap(), ["FLD_NAME"]);
    drop(tx);

    assert_eq!(db.user_level("user-299").unwrap(), Some(AccessLevel::Read));
    assert_eq!(db.user_level("admin").unwrap(), Some(AccessLevel::Admin));
    let keyed = page_requests(&db, || db.user_level("user-150").unwrap());
    let fresh_cost = {
        let small = with_users(8);
        page_requests(&small, || small.user_level("user-7").unwrap())
    };
    assert_eq!(keyed, fresh_cost, "301 users still fit one-level trees");
    assert!(db.list_objects("user-0", "Document").unwrap().is_empty());
    db.put_user("admin", "user-0", AccessLevel::Write).unwrap();
    assert_eq!(db.user_level("user-0").unwrap(), Some(AccessLevel::Write));
    let report = db.database().check_integrity();
    assert!(report.is_ok(), "{report:?}");
    assert!(report.warnings.is_empty(), "{report:?}");
}

#[test]
fn crash_during_index_backfill_leaves_a_valid_pre_index_file() {
    use rcmo_storage::{failpoint, DbOptions, Source};
    let dir = std::env::temp_dir().join(format!("rcmo-mdb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("backfill.db");
    let reset = || {
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(rcmo_storage::db::wal_path_for(&path));
    };
    let upgrade = |arm_append: Option<u64>| {
        reset();
        drop(pre_index_database(Source::Path(path.clone()), 300));
        let db = Database::open_with(Source::Path(path.clone()), DbOptions::eager()).unwrap();
        failpoint::reset();
        if let Some(n) = arm_append {
            failpoint::arm(failpoint::WAL_APPEND, n);
        }
        let res = MediaDb::with_database(db).map(drop);
        let appends = failpoint::hits(failpoint::WAL_APPEND);
        failpoint::reset();
        (res, appends)
    };

    // Two commits upgrade the file — the master table's index, then the
    // users table's. Lose the in-flight one at every WAL record in turn.
    let (clean, appends) = upgrade(None);
    clean.unwrap();
    let mut master_indexed = 0;
    for n in 1..=appends {
        let (res, _) = upgrade(Some(n));
        assert!(res.is_err(), "armed append {n} must fail the upgrade");
        let db = Database::open(&path).unwrap();
        let report = db.check_integrity();
        assert!(report.is_ok(), "append {n}: {report:?}");
        let mut tx = db.begin().unwrap();
        assert!(
            tx.indexes(acl::USERS_TABLE).unwrap().is_empty(),
            "append {n}"
        );
        master_indexed += tx.indexes(schema::MASTER_TABLE).unwrap().len() as u64;
        assert_eq!(tx.count(acl::USERS_TABLE).unwrap(), 301, "append {n}");
        drop(tx);
        // The next open finishes the job.
        let db = MediaDb::with_database(db).unwrap();
        assert_eq!(db.user_level("user-299").unwrap(), Some(AccessLevel::Read));
        assert!(db.database().check_integrity().is_ok(), "append {n}");
    }
    assert!(
        0 < master_indexed && master_indexed < appends,
        "the sweep must lose each of the two commits: {master_indexed} of {appends}"
    );
    reset();
}
