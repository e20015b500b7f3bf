use super::*;
use crate::catalog::{Column, ColumnType};

fn media_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("FLD_NAME", ColumnType::Text),
        Column::new("FLD_MIME", ColumnType::Text),
        Column::new("FLD_DATA", ColumnType::Blob),
    ])
    .unwrap()
}

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcmo-db-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{tag}.db"));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path_for(&p));
    p
}

#[test]
fn create_insert_get() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let id = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("a".into()),
                RowValue::Text("image/ct".into()),
                RowValue::Null,
            ],
        )
        .unwrap();
    assert_eq!(id, 1);
    let row = tx.get("T", id).unwrap().unwrap();
    assert_eq!(row[1], RowValue::Text("a".into()));
    assert_eq!(tx.get("T", 99).unwrap(), None);
    tx.commit().unwrap();
}

#[test]
fn auto_ids_are_monotone_and_explicit_ids_respected() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let a = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("a".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    let b = tx
        .insert(
            "T",
            vec![
                RowValue::U64(10),
                RowValue::Text("b".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    let c = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("c".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    assert_eq!((a, b), (1, 10));
    assert_eq!(c, 11, "auto id resumes after the explicit one");
    assert!(matches!(
        tx.insert(
            "T",
            vec![
                RowValue::U64(10),
                RowValue::Text("dup".into()),
                RowValue::Null,
                RowValue::Null
            ]
        ),
        Err(StorageError::DuplicateKey(10))
    ));
    // The failed insert must not leave a ghost row.
    assert_eq!(tx.count("T").unwrap(), 3);
    tx.commit().unwrap();
}

#[test]
fn update_and_delete() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let id = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("x".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    tx.update(
        "T",
        id,
        vec![
            RowValue::Null,
            RowValue::Text("y".into()),
            RowValue::Text("m".into()),
            RowValue::Null,
        ],
    )
    .unwrap();
    assert_eq!(
        tx.get("T", id).unwrap().unwrap()[1],
        RowValue::Text("y".into())
    );
    let old = tx.delete("T", id).unwrap();
    assert_eq!(old[1], RowValue::Text("y".into()));
    assert_eq!(tx.get("T", id).unwrap(), None);
    assert!(tx.delete("T", id).is_err());
    tx.commit().unwrap();
}

#[test]
fn update_cannot_change_pk() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let id = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("x".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    assert!(tx
        .update(
            "T",
            id,
            vec![
                RowValue::U64(id + 1),
                RowValue::Text("y".into()),
                RowValue::Null,
                RowValue::Null
            ]
        )
        .is_err());
    tx.commit().unwrap();
}

#[test]
fn scan_and_range_are_key_ordered() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    for id in [5u64, 1, 9, 3, 7] {
        tx.insert(
            "T",
            vec![
                RowValue::U64(id),
                RowValue::Text(format!("n{id}")),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    }
    let rows = tx.scan("T").unwrap();
    let ids: Vec<u64> = rows.iter().map(|r| r[0].as_u64().unwrap()).collect();
    assert_eq!(ids, vec![1, 3, 5, 7, 9]);
    let mid = tx.range("T", 3, 7).unwrap();
    assert_eq!(mid.len(), 3);
    tx.commit().unwrap();
}

#[test]
fn unknown_table_errors() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    assert!(tx.get("NOPE", 1).is_err());
    assert!(tx.insert("NOPE", vec![RowValue::Null]).is_err());
    assert!(tx.drop_table("NOPE").is_err());
    tx.create_table("T", media_schema()).unwrap();
    assert!(matches!(
        tx.create_table("T", media_schema()),
        Err(StorageError::Catalog(_))
    ));
}

#[test]
fn blob_in_row_roundtrip() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let payload: Vec<u8> = (0..50_000).map(|i| (i % 251) as u8).collect();
    let blob = tx.put_blob(&payload).unwrap();
    let id = tx
        .insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("ct".into()),
                RowValue::Text("image".into()),
                RowValue::Blob(blob),
            ],
        )
        .unwrap();
    let row = tx.get("T", id).unwrap().unwrap();
    let got = tx.get_blob(row[3].as_blob().unwrap()).unwrap();
    assert_eq!(got, payload);
    assert_eq!(tx.blob_len(blob).unwrap(), 50_000);
    let prefix = tx.get_blob_prefix(blob, 100).unwrap();
    assert_eq!(prefix, &payload[..100]);
    tx.commit().unwrap();
}

#[test]
fn rollback_on_drop_discards_everything() {
    let db = Database::in_memory().unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("x".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        // dropped without commit
    }
    let mut tx = db.begin().unwrap();
    assert!(tx.get("T", 1).is_err(), "table creation rolled back");
    assert!(tx.table_names().is_empty());
}

#[test]
fn explicit_rollback() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    tx.commit().unwrap();
    let mut tx = db.begin().unwrap();
    tx.insert(
        "T",
        vec![
            RowValue::Null,
            RowValue::Text("x".into()),
            RowValue::Null,
            RowValue::Null,
        ],
    )
    .unwrap();
    tx.rollback();
    let mut tx = db.begin().unwrap();
    assert_eq!(tx.count("T").unwrap(), 0);
}

#[test]
fn persistence_across_reopen() {
    let path = tmp_path("persist");
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        for i in 0..200u64 {
            tx.insert(
                "T",
                vec![
                    RowValue::Null,
                    RowValue::Text(format!("row{i}")),
                    RowValue::Null,
                    RowValue::Null,
                ],
            )
            .unwrap();
        }
        tx.commit().unwrap();
    }
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        assert_eq!(tx.count("T").unwrap(), 200);
        assert_eq!(
            tx.get("T", 150).unwrap().unwrap()[1],
            RowValue::Text("row149".into())
        );
        // Ids continue after reopen.
        let id = tx
            .insert(
                "T",
                vec![
                    RowValue::Null,
                    RowValue::Text("new".into()),
                    RowValue::Null,
                    RowValue::Null,
                ],
            )
            .unwrap();
        assert_eq!(id, 201);
        tx.commit().unwrap();
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
}

#[test]
fn recovery_replays_wal_after_crash() {
    let path = tmp_path("recovery");
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.commit().unwrap();
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("survivor".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        // Crash right after the WAL sync: data file not updated.
        tx.simulate_crash_after_wal().unwrap();
        // Within the *same* process the data file is stale:
        let mut tx = db.begin().unwrap();
        assert_eq!(tx.count("T").unwrap(), 0, "data file is pre-commit");
    }
    {
        // Reopen: recovery must replay the committed transaction.
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        assert_eq!(tx.count("T").unwrap(), 1);
        assert_eq!(
            tx.get("T", 1).unwrap().unwrap()[1],
            RowValue::Text("survivor".into())
        );
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
}

#[test]
fn torn_wal_tail_loses_only_uncommitted() {
    let path = tmp_path("torn");
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text("committed".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.simulate_crash_after_wal().unwrap();
    }
    // Rip bytes off the WAL tail: the commit record is damaged, so the
    // whole transaction must vanish on recovery.
    let wal = wal_path_for(&path);
    let bytes = std::fs::read(&wal).unwrap();
    std::fs::write(&wal, &bytes[..bytes.len() - 5]).unwrap();
    {
        let db = Database::open(&path).unwrap();
        let tx = db.begin().unwrap();
        assert!(tx.table_names().is_empty(), "uncommitted txn discarded");
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal);
}

#[test]
fn drop_table_frees_space_for_reuse() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("A", media_schema()).unwrap();
    for i in 0..500u64 {
        tx.insert(
            "A",
            vec![
                RowValue::Null,
                RowValue::Text(format!("{i}")),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    }
    tx.drop_table("A").unwrap();
    assert!(tx.table_names().is_empty());
    tx.create_table("B", media_schema()).unwrap();
    let id = tx
        .insert(
            "B",
            vec![
                RowValue::Null,
                RowValue::Text("fresh".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
    assert_eq!(
        tx.get("B", id).unwrap().unwrap()[1],
        RowValue::Text("fresh".into())
    );
    tx.commit().unwrap();
}

#[test]
fn multiple_tables_are_independent() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("IMAGE_OBJECTS_TABLE", media_schema())
        .unwrap();
    tx.create_table("AUDIO_OBJECTS_TABLE", media_schema())
        .unwrap();
    tx.insert(
        "IMAGE_OBJECTS_TABLE",
        vec![
            RowValue::Null,
            RowValue::Text("img".into()),
            RowValue::Null,
            RowValue::Null,
        ],
    )
    .unwrap();
    assert_eq!(tx.count("IMAGE_OBJECTS_TABLE").unwrap(), 1);
    assert_eq!(tx.count("AUDIO_OBJECTS_TABLE").unwrap(), 0);
    assert_eq!(
        tx.table_names(),
        vec![
            "AUDIO_OBJECTS_TABLE".to_string(),
            "IMAGE_OBJECTS_TABLE".to_string()
        ]
    );
    tx.commit().unwrap();
}

#[test]
fn large_table_spans_many_pages() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let n = 3_000u64;
    for i in 0..n {
        tx.insert(
            "T",
            vec![
                RowValue::Null,
                RowValue::Text(format!("record-{i:05}")),
                RowValue::Text("media/type".into()),
                RowValue::Null,
            ],
        )
        .unwrap();
    }
    assert_eq!(tx.count("T").unwrap(), n as usize);
    for i in (1..=n).step_by(131) {
        assert_eq!(
            tx.get("T", i).unwrap().unwrap()[1],
            RowValue::Text(format!("record-{:05}", i - 1))
        );
    }
    tx.commit().unwrap();
}

#[test]
fn blob_survives_reopen() {
    let path = tmp_path("blob");
    let payload: Vec<u8> = (0..123_456).map(|i| (i * 7 % 256) as u8).collect();
    let blob_id;
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        blob_id = tx.put_blob(&payload).unwrap();
        tx.commit().unwrap();
    }
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        assert_eq!(tx.get_blob(blob_id).unwrap(), payload);
    }
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
}

#[test]
fn schema_is_persisted() {
    let db = Database::in_memory().unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    let s = tx.schema("T").unwrap();
    assert_eq!(s.arity(), 4);
    assert_eq!(s.columns()[3].name, "FLD_DATA");
    assert_eq!(s.columns()[3].ty, ColumnType::Blob);
}

#[test]
fn pool_overflow_grows_and_commits() {
    // A transaction whose dirty set dwarfs the page cache does not abort:
    // the write set has no capacity (no-steal, no-force), and the commit
    // lands intact through an 8-frame cache.
    let db = Database::open_with(
        Source::Memory,
        DbOptions {
            cache_frames: 8,
            ..DbOptions::default()
        },
    )
    .unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.commit().unwrap();
    }
    {
        let mut tx = db.begin().unwrap();
        for i in 0..2_000u64 {
            tx.insert(
                "T",
                vec![
                    RowValue::Null,
                    RowValue::Text(format!("row {i} with some padding text")),
                    RowValue::Null,
                    RowValue::Null,
                ],
            )
            .unwrap();
        }
        tx.commit().unwrap();
    }
    let mut tx = db.begin().unwrap();
    assert_eq!(
        tx.count("T").unwrap(),
        2_000,
        "oversized txn fully committed"
    );
}

#[test]
fn commit_after_crash_hook_cannot_duplicate_txn() {
    // A commit following `simulate_crash_after_wal` must not replay the
    // staged transaction alongside its own: the forced pre-append fold
    // clears the staged WAL records before the new commit appends.
    let path = tmp_path("hook-then-commit");
    let db = Database::open(&path).unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(1),
                RowValue::Text("a".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    {
        // Staged-but-not-committed: WAL records exist, state is rolled back.
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(2),
                RowValue::Text("b".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.simulate_crash_after_wal().unwrap();
    }
    {
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(3),
                RowValue::Text("c".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    fn expect_keys(tx: &mut Transaction<'_>) {
        let keys: Vec<u64> = tx
            .scan("T")
            .unwrap()
            .into_iter()
            .map(|row| match row[0] {
                RowValue::U64(k) => k,
                ref v => panic!("non-u64 key {v:?}"),
            })
            .collect();
        assert_eq!(keys, vec![1, 3], "staged txn 2 must not resurrect");
    }
    expect_keys(&mut db.begin().unwrap());
    drop(db);
    let db = Database::open(&path).unwrap();
    expect_keys(&mut db.begin().unwrap());
    let report = db.check_integrity();
    assert!(
        report.is_ok(),
        "integrity after hook+commit+reopen: {report:?}"
    );
}

#[test]
fn snapshot_reader_does_not_block_writer() {
    let db = Database::in_memory().unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(1),
                RowValue::Text("old".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    let reader = db.begin_read().unwrap();
    assert_eq!(reader.count("T").unwrap(), 1);
    // The writer proceeds while the snapshot is held — same thread, so any
    // blocking here would deadlock the test.
    {
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(2),
                RowValue::Text("new".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(reader.count("T").unwrap(), 1, "snapshot is frozen");
    assert!(reader.get("T", 2).unwrap().is_none());
    let fresh = db.begin_read().unwrap();
    assert_eq!(fresh.count("T").unwrap(), 2, "new snapshot sees the commit");
    drop(reader);
    drop(fresh);
    db.checkpoint().unwrap();
}

#[test]
fn live_reader_defers_checkpoint_without_deadlock() {
    // With `checkpoint_commits: 1` every commit wants to checkpoint; a live
    // older snapshot must make the commit skip (not block on) the fold.
    let opts = DbOptions {
        checkpoint_commits: 1,
        ..DbOptions::default()
    };
    let db = Database::open_with(Source::Memory, opts).unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.commit().unwrap();
    }
    let reader = db.begin_read().unwrap();
    for i in 0..5u64 {
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(i + 1),
                RowValue::Text("x".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    assert_eq!(reader.count("T").unwrap(), 0, "snapshot predates all rows");
    drop(reader);
    // With the old snapshot gone the deferred fold can finally run.
    db.checkpoint().unwrap();
    let mut tx = db.begin().unwrap();
    assert_eq!(tx.count("T").unwrap(), 5);
}

#[test]
fn forced_fold_blocks_commit_until_old_readers_release() {
    // After the crash hook stages WAL records, the next commit must fold
    // them out before appending — never append behind the orphaned tail.
    // With a snapshot reader pinning a version older than the fold base,
    // the commit therefore blocks until the reader is released.
    let db = Database::in_memory().unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.commit().unwrap();
    }
    let reader = db.begin_read().unwrap();
    {
        // Bump the committed version past the reader's snapshot.
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(1),
                RowValue::Text("committed".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.commit().unwrap();
    }
    {
        let mut tx = db.begin().unwrap();
        tx.insert(
            "T",
            vec![
                RowValue::U64(2),
                RowValue::Text("staged".into()),
                RowValue::Null,
                RowValue::Null,
            ],
        )
        .unwrap();
        tx.simulate_crash_after_wal().unwrap();
    }
    std::thread::scope(|s| {
        let t = s.spawn(|| {
            let mut tx = db.begin().unwrap();
            tx.insert(
                "T",
                vec![
                    RowValue::U64(3),
                    RowValue::Text("after".into()),
                    RowValue::Null,
                    RowValue::Null,
                ],
            )
            .unwrap();
            tx.commit().unwrap();
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(
            !t.is_finished(),
            "commit must wait for the forced fold, not append past it"
        );
        drop(reader);
        t.join().unwrap();
    });
    let mut tx = db.begin().unwrap();
    let keys: Vec<u64> = tx
        .scan("T")
        .unwrap()
        .into_iter()
        .map(|row| row[0].as_u64().unwrap())
        .collect();
    assert_eq!(keys, vec![1, 3], "staged txn folded away, commit landed");
    drop(tx);
    assert!(db.check_integrity().is_ok());
}

#[test]
fn post_publish_checkpoint_failure_reports_committed() {
    // A checkpoint failure after the transaction published must not read
    // as "not committed": the dedicated variant says the commit stands.
    let db = Database::open_with(Source::Memory, DbOptions::eager()).unwrap();
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        tx.commit().unwrap();
    }
    let mut tx = db.begin().unwrap();
    tx.insert(
        "T",
        vec![
            RowValue::U64(7),
            RowValue::Text("kept".into()),
            RowValue::Null,
            RowValue::Null,
        ],
    )
    .unwrap();
    crate::failpoint::arm(crate::failpoint::CHECKPOINT, 1);
    let err = tx.commit().unwrap_err();
    crate::failpoint::reset();
    assert!(
        matches!(err, StorageError::CheckpointAfterCommit(_)),
        "got {err:?}"
    );
    // The transaction is committed despite the error...
    let rd = db.begin_read().unwrap();
    assert_eq!(
        rd.get("T", 7).unwrap().unwrap()[1],
        RowValue::Text("kept".into())
    );
    drop(rd);
    // ...and the engine recovers: the deferred fold reruns, later commits
    // succeed, and nothing is duplicated.
    let mut tx = db.begin().unwrap();
    tx.insert(
        "T",
        vec![
            RowValue::U64(8),
            RowValue::Text("next".into()),
            RowValue::Null,
            RowValue::Null,
        ],
    )
    .unwrap();
    tx.commit().unwrap();
    let mut tx = db.begin().unwrap();
    assert_eq!(tx.count("T").unwrap(), 2);
    drop(tx);
    assert!(db.check_integrity().is_ok());
}

#[test]
fn try_begin_is_non_blocking() {
    let db = Database::in_memory().unwrap();
    let tx = db.try_begin().expect("no other transaction");
    assert!(db.try_begin().is_none(), "second concurrent txn refused");
    drop(tx);
    assert!(db.try_begin().is_some());
}

fn text_row(id: u64, name: &str) -> Vec<RowValue> {
    vec![
        RowValue::U64(id),
        RowValue::Text(name.into()),
        RowValue::Null,
        RowValue::Null,
    ]
}

/// Runs `f` on a helper thread while this thread holds a write transaction
/// with uncommitted changes, and requires an answer within two seconds:
/// nothing but another writer may wait on the writer lock. Receiving with a
/// timeout turns a regression into a failure rather than a hung suite.
fn call_beside_open_transaction<T: Send + 'static>(
    what: &str,
    f: impl FnOnce(&Database) -> T + Send + 'static,
) -> T {
    let db = Arc::new(Database::in_memory().unwrap());
    {
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        for id in 1..=3 {
            tx.insert("T", text_row(id, "committed")).unwrap();
        }
        tx.commit().unwrap();
    }
    let mut tx = db.begin().unwrap();
    tx.create_table("U", media_schema()).unwrap();
    tx.insert("T", text_row(4, "uncommitted")).unwrap();
    let (send, recv) = std::sync::mpsc::channel();
    let helper = std::thread::spawn({
        let db = Arc::clone(&db);
        move || send.send(f(&db)).unwrap()
    });
    let got = recv
        .recv_timeout(Duration::from_secs(2))
        .unwrap_or_else(|_| panic!("{what} waited on the writer lock"));
    helper.join().unwrap();
    tx.rollback();
    got
}

#[test]
fn pool_stats_does_not_wait_for_an_open_transaction() {
    let stats = call_beside_open_transaction("pool_stats", |db| db.pool_stats());
    assert!(stats.hits > 0, "{stats:?}");
}

#[test]
fn check_integrity_does_not_wait_for_an_open_transaction() {
    let report = call_beside_open_transaction("check_integrity", |db| db.check_integrity());
    assert!(report.is_ok(), "{report:?}");
    // The walk saw the last committed state, not the open transaction's.
    assert_eq!((report.tables, report.rows), (1, 3), "{report:?}");
}

#[test]
fn snapshot_reads_of_the_committed_overlay_count_as_hits() {
    // No checkpoint runs, so everything committed stays in the overlay.
    let opts = DbOptions {
        checkpoint_commits: u64::MAX,
        ..DbOptions::default()
    };
    let db = Database::open_with(Source::Memory, opts).unwrap();
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    tx.insert("T", text_row(1, "fresh")).unwrap();
    tx.commit().unwrap();

    let before = db.pool_stats();
    let row = db.begin_read().unwrap().get("T", 1).unwrap().unwrap();
    assert_eq!(row[1], RowValue::Text("fresh".into()));
    let after = db.pool_stats();
    assert!(after.hits > before.hits, "{before:?} -> {after:?}");
    assert_eq!(after.misses, before.misses, "{before:?} -> {after:?}");
}

// ---------------------------------------------------------------------------
// Secondary indexes
// ---------------------------------------------------------------------------

fn name(s: &str) -> RowValue {
    RowValue::Text(s.into())
}

/// Primary keys of the rows `find` returns for `FLD_NAME = value`.
fn found(tx: &mut Transaction<'_>, value: &RowValue) -> Vec<u64> {
    let rows = tx.find("T", "FLD_NAME", value).unwrap();
    rows.iter().map(|r| r[0].as_u64().unwrap()).collect()
}

fn indexed_table(db: &Database) {
    let mut tx = db.begin().unwrap();
    tx.create_table("T", media_schema()).unwrap();
    tx.create_index("T", "FLD_NAME").unwrap();
    tx.commit().unwrap();
}

#[test]
fn find_follows_every_row_operation() {
    let db = Database::in_memory().unwrap();
    indexed_table(&db);
    let mut tx = db.begin().unwrap();
    for (id, n) in [(1, "a"), (2, "b"), (3, "a")] {
        tx.insert("T", text_row(id, n)).unwrap();
    }
    let mut null_name = text_row(4, "");
    null_name[1] = RowValue::Null;
    tx.insert("T", null_name).unwrap();
    assert_eq!(found(&mut tx, &name("a")), [1, 3]);
    assert_eq!(found(&mut tx, &name("b")), [2]);
    assert_eq!(found(&mut tx, &RowValue::Null), [4]);
    assert!(found(&mut tx, &name("c")).is_empty());

    // An update moves the entry only when the indexed value changed.
    tx.update("T", 1, text_row(1, "b")).unwrap();
    let mut same_name = text_row(3, "a");
    same_name[2] = name("image/ct");
    tx.update("T", 3, same_name.clone()).unwrap();
    assert_eq!(found(&mut tx, &name("a")), [3]);
    assert_eq!(found(&mut tx, &name("b")), [1, 2]);
    assert_eq!(tx.find("T", "FLD_NAME", &name("a")).unwrap(), [same_name]);

    tx.delete("T", 2).unwrap();
    assert_eq!(found(&mut tx, &name("b")), [1]);
    tx.commit().unwrap();

    // Snapshots answer from their own version; a rollback leaves no trace.
    let before = db.begin_read().unwrap();
    let mut tx = db.begin().unwrap();
    tx.insert("T", text_row(9, "a")).unwrap();
    tx.delete("T", 1).unwrap();
    assert_eq!(found(&mut tx, &name("a")), [3, 9]);
    tx.rollback();
    let mut tx = db.begin().unwrap();
    assert_eq!(found(&mut tx, &name("a")), [3]);
    tx.insert("T", text_row(9, "a")).unwrap();
    tx.commit().unwrap();
    assert_eq!(before.find("T", "FLD_NAME", &name("a")).unwrap().len(), 1);
    let after = db.begin_read().unwrap();
    assert_eq!(after.find("T", "FLD_NAME", &name("a")).unwrap().len(), 2);
    drop((before, after));
    let report = db.check_integrity();
    assert!(report.is_ok(), "{report:?}");
}

#[test]
fn find_needs_an_index_and_a_value_of_the_column_type() {
    let db = Database::in_memory().unwrap();
    indexed_table(&db);
    let mut tx = db.begin().unwrap();
    for (column, value) in [
        ("FLD_MIME", name("x")),        // not indexed
        ("NOPE", name("x")),            // no such column
        ("FLD_NAME", RowValue::I64(1)), // wrong type
    ] {
        let err = tx.find("T", column, &value).unwrap_err();
        assert!(matches!(err, StorageError::Catalog(_)), "{column}: {err}");
    }
    // The primary key and an indexed column cannot be indexed again.
    assert!(tx.create_index("T", "ID").is_err());
    assert!(tx.create_index("T", "FLD_NAME").is_err());
    assert!(tx.create_index("T", "NOPE").is_err());
    assert_eq!(tx.indexes("T").unwrap(), ["FLD_NAME"]);
}

#[test]
fn create_index_backfills_and_survives_reopen() {
    let path = tmp_path("index-backfill");
    {
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        // 1 200 rows over 400 names: three-row buckets and split leaves.
        for id in 1..=1_200u64 {
            tx.insert("T", text_row(id, &format!("n{}", id % 400)))
                .unwrap();
        }
        tx.commit().unwrap();
        let mut tx = db.begin().unwrap();
        assert!(tx.indexes("T").unwrap().is_empty());
        tx.create_index("T", "FLD_NAME").unwrap();
        assert_eq!(found(&mut tx, &name("n7")), [7, 407, 807]);
        tx.commit().unwrap();
    }
    let db = Database::open(&path).unwrap();
    let mut tx = db.begin().unwrap();
    assert_eq!(tx.indexes("T").unwrap(), ["FLD_NAME"]);
    assert_eq!(found(&mut tx, &name("n0")), [400, 800, 1_200]);
    tx.insert("T", text_row(2_000, "n0")).unwrap();
    tx.commit().unwrap();
    let report = db.check_integrity();
    assert!(report.is_ok(), "{report:?}");
    assert!(report.warnings.is_empty(), "{report:?}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
}

#[test]
fn dropping_an_indexed_table_frees_the_index_pages() {
    let db = Database::in_memory().unwrap();
    indexed_table(&db);
    let mut tx = db.begin().unwrap();
    for id in 1..=1_200u64 {
        tx.insert("T", text_row(id, &format!("n{id}"))).unwrap();
    }
    tx.commit().unwrap();
    let mut tx = db.begin().unwrap();
    tx.drop_table("T").unwrap();
    tx.commit().unwrap();
    let report = db.check_integrity();
    assert!(report.is_ok(), "{report:?}");
    // No BLOBs were stored, so nothing may be left unreachable.
    assert!(report.warnings.is_empty(), "{report:?}");
}

fn meta_magic(db: &Database) -> u64 {
    let mut inner = db.writer.lock();
    inner
        .pool
        .with_page(PageId::META, |p| p.get_u64(META_MAGIC_OFF))
        .unwrap()
}

#[test]
fn version_1_file_opens_and_its_first_index_restamps_it() {
    let path = tmp_path("v1-file");
    {
        // An un-indexed table's catalog record is the version-1 record, so
        // stamping the old magic over a fresh file yields a version-1 file.
        let db = Database::open(&path).unwrap();
        let mut tx = db.begin().unwrap();
        tx.create_table("T", media_schema()).unwrap();
        for id in 1..=300u64 {
            tx.insert("T", text_row(id, &format!("n{id}"))).unwrap();
        }
        tx.inner
            .pool
            .with_page_mut(PageId::META, |p| p.put_u64(META_MAGIC_OFF, META_MAGIC_V1))
            .unwrap();
        tx.commit().unwrap();
    }
    {
        let db = Database::open(&path).expect("version 1 still opens");
        assert_eq!(meta_magic(&db), META_MAGIC_V1);
        // Plain row traffic leaves the version alone...
        let mut tx = db.begin().unwrap();
        tx.insert("T", text_row(301, "n301")).unwrap();
        tx.commit().unwrap();
        assert_eq!(meta_magic(&db), META_MAGIC_V1);
        assert!(db.check_integrity().is_ok());
        // ...a rolled-back index too...
        let mut tx = db.begin().unwrap();
        tx.create_index("T", "FLD_NAME").unwrap();
        tx.rollback();
        assert_eq!(meta_magic(&db), META_MAGIC_V1);
        // ...a committed one makes the file version 2, which the version-1
        // magic check (`magic != META_MAGIC`) turns away.
        let mut tx = db.begin().unwrap();
        tx.create_index("T", "FLD_NAME").unwrap();
        tx.commit().unwrap();
        assert_eq!(meta_magic(&db), META_MAGIC);
    }
    let db = Database::open(&path).unwrap();
    let mut tx = db.begin().unwrap();
    assert_eq!(found(&mut tx, &name("n301")), [301]);
    drop(tx);
    let report = db.check_integrity();
    assert!(report.is_ok(), "{report:?}");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(wal_path_for(&path));
}

#[test]
fn integrity_walk_catches_an_index_that_disagrees_with_its_rows() {
    let db = Database::in_memory().unwrap();
    indexed_table(&db);
    let mut tx = db.begin().unwrap();
    for (id, n) in [(1, "a"), (2, "b"), (3, "c")] {
        tx.insert("T", text_row(id, n)).unwrap();
    }
    tx.commit().unwrap();
    assert!(db.check_integrity().is_ok());

    // Behind the engine's back: drop row 1's entry, and file a second entry
    // for row 2 under a value it does not hold.
    let mut tx = db.begin().unwrap();
    let root = tx.entry("T").unwrap().info.indexes[0].root;
    index::remove(&mut tx.inner.pool, root, &name("a"), 1).unwrap();
    let stray = index::free_key(&mut tx.inner.pool, root, &name("zzz"))
        .unwrap()
        .unwrap();
    BTree::open(root)
        .insert(&mut tx.inner.pool, stray, 2)
        .unwrap();
    tx.commit().unwrap();
    let report = db.check_integrity();
    let errors = report.errors.join("\n");
    assert!(errors.contains("row 1 has no entry"), "{errors}");
    assert!(
        errors.contains("files row 2 outside its bucket"),
        "{errors}"
    );
    assert!(
        errors.contains("points at row 2, which is gone or already filed"),
        "{errors}"
    );
    assert_eq!(report.errors.len(), 3, "{errors}");
}
