//! Deterministic crash-injection torture for the storage stack.
//!
//! Three sweeps exercise every durability site (ISSUE: crash-at-every-
//! failpoint × several workload seeds) plus salvage-mode acceptance:
//!
//! 1. **Failpoint sweep** — a file-backed database runs a seeded workload
//!    with each named failpoint armed at every occurrence in turn. The
//!    interrupted database is reopened and must pass `check_integrity`,
//!    match the shadow model exactly (zero committed-transaction loss,
//!    zero uncommitted visibility), and accept further writes.
//! 2. **FaultyBackend sweep** — the same workload over `SimStore`s with a
//!    crash injected at every byte-level operation, in three volatility
//!    models (plain, torn writes, torn + dropped-unsynced). Only the
//!    *surviving* bytes are reopened.
//! 3. **Salvage acceptance** — torn trailing data-file garbage, corrupt
//!    WAL tails, and corrupt WAL headers must not prevent `open`.
//!
//! All randomness is a seeded SplitMix64: every run replays byte-for-byte.

use rcmo::mediadb::{AccessLevel, ImageObject, MediaDb};
use rcmo::storage::db::wal_path_for;
use rcmo::storage::{
    failpoint, Backend, Column, ColumnType, CrashSpec, Database, DbOptions, FaultInjector,
    MemBackend, RowValue, Schema, SimStore, Source, StorageError, Transaction,
};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::PathBuf;

const FRAMES: usize = 256;
const TABLE: &str = "t";

/// Opens over explicit backends with a small cache, checkpointing eagerly on
/// every commit so each durability site is crossed per transaction.
fn open_eager(
    data: impl Backend + 'static,
    wal: impl Backend + 'static,
) -> Result<Database, StorageError> {
    Database::open_with(
        Source::Backends {
            data: Box::new(data),
            wal: Box::new(wal),
        },
        DbOptions {
            cache_frames: FRAMES,
            ..DbOptions::eager()
        },
    )
}

fn tmp_db(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcmo-torture-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(format!("{tag}.db"));
    let _ = std::fs::remove_file(&p);
    let _ = std::fs::remove_file(wal_path_for(&p));
    p
}

// ---------------------------------------------------------------------------
// Deterministic workload plans + shadow model
// ---------------------------------------------------------------------------

/// SplitMix64, so plans replay identically without an RNG dependency.
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }
}

#[derive(Debug, Clone)]
enum Op {
    Insert {
        id: u64,
        v: i64,
        d_len: usize,
        blob_len: Option<usize>,
    },
    Update {
        id: u64,
        v: i64,
        d_len: usize,
        blob_len: Option<usize>,
    },
    Delete {
        id: u64,
    },
}

/// One transaction's worth of operations. The first plan additionally
/// creates the table and its index.
struct TxnPlan {
    ops: Vec<Op>,
}

/// Row contents are pure functions of (id, v, len) so the shadow model can
/// recompute them without storing payloads in the plan.
fn d_bytes(id: u64, v: i64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (id as u8) ^ (v as u8) ^ (i as u8))
        .collect()
}

/// The indexed column: a pure function of `v`, so every update that changes
/// `v` moves the row's index entry. Fifty values keep buckets several rows
/// deep; every tenth `v` stores NULL.
fn tag(v: i64) -> Option<String> {
    (v % 10 != 0).then(|| format!("t{}", v.rem_euclid(50)))
}

fn tag_value(v: i64) -> RowValue {
    tag(v).map_or(RowValue::Null, RowValue::Text)
}

/// Rows the creating transaction inserts: exactly one full B+tree leaf
/// (`btree::LEAF_CAP`) in the primary-key tree and in the index. The next
/// transaction opens with an insert, which splits both roots, so every
/// crash site of that commit is crossed with the catalog's root pointers
/// moving.
const SEED_ROWS: u64 = 500;

fn blob_bytes(id: u64, v: i64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (id as u8).wrapping_mul(31) ^ (v as u8) ^ (i as u8).wrapping_mul(7))
        .collect()
}

fn make_plans(seed: u64, txns: usize) -> Vec<TxnPlan> {
    let mut rng = Rng(seed);
    // Plan 0 creates the table and seeds it.
    let mut live: Vec<u64> = (1..=SEED_ROWS).collect();
    let mut next_id = SEED_ROWS + 1;
    let seed_ops = live.iter().map(|&id| Op::Insert {
        id,
        v: rng.below(1000) as i64 - 500,
        d_len: 1 + rng.below(8) as usize,
        blob_len: None,
    });
    let mut plans = vec![TxnPlan {
        ops: seed_ops.collect(),
    }];
    for _ in 0..txns {
        let nops = 1 + rng.below(3) as usize;
        let mut ops = Vec::new();
        for _ in 0..nops {
            let choice = rng.below(10);
            let splits_the_seeded_leaves = plans.len() == 1 && ops.is_empty();
            if splits_the_seeded_leaves || live.is_empty() || choice < 5 {
                let id = next_id;
                next_id += 1;
                live.push(id);
                ops.push(Op::Insert {
                    id,
                    v: rng.below(1000) as i64 - 500,
                    d_len: 1 + rng.below(40) as usize,
                    blob_len: match rng.below(4) {
                        0 => None,
                        // Occasionally multi-page (> 2 × PAGE_SIZE).
                        1 => Some(9000 + rng.below(1500) as usize),
                        _ => Some(100 + rng.below(1900) as usize),
                    },
                });
            } else if choice < 8 {
                let id = live[rng.below(live.len() as u64) as usize];
                ops.push(Op::Update {
                    id,
                    v: rng.below(1000) as i64 - 500,
                    d_len: 1 + rng.below(40) as usize,
                    blob_len: match rng.below(3) {
                        0 => None,
                        _ => Some(100 + rng.below(3000) as usize),
                    },
                });
            } else {
                let idx = rng.below(live.len() as u64) as usize;
                ops.push(Op::Delete {
                    id: live.remove(idx),
                });
            }
        }
        plans.push(TxnPlan { ops });
    }
    plans
}

#[derive(Debug, Clone, PartialEq)]
struct ModelRow {
    v: i64,
    t: Option<String>,
    d: Vec<u8>,
    b: Option<Vec<u8>>,
}

/// `None` means the table does not exist yet (the creating transaction
/// never committed).
type State = Option<BTreeMap<u64, ModelRow>>;

fn model_apply(state: &mut State, plan: &TxnPlan, first: bool) {
    if first {
        *state = Some(BTreeMap::new());
    }
    let m = state.as_mut().expect("table created before row ops");
    for op in &plan.ops {
        match *op {
            Op::Insert {
                id,
                v,
                d_len,
                blob_len,
            }
            | Op::Update {
                id,
                v,
                d_len,
                blob_len,
            } => {
                m.insert(
                    id,
                    ModelRow {
                        v,
                        t: tag(v),
                        d: d_bytes(id, v, d_len),
                        b: blob_len.map(|n| blob_bytes(id, v, n)),
                    },
                );
            }
            Op::Delete { id } => {
                m.remove(&id);
            }
        }
    }
}

/// Creates the torture table with its secondary index on `T`.
fn create_table(tx: &mut Transaction<'_>) -> Result<(), StorageError> {
    let schema = Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("V", ColumnType::I64),
        Column::new("T", ColumnType::Text),
        Column::new("D", ColumnType::Bytes),
        Column::new("B", ColumnType::Blob),
    ])
    .unwrap();
    tx.create_table(TABLE, schema)?;
    tx.create_index(TABLE, "T")
}

/// Applies one planned transaction, committing at the end. Any error
/// (injected or real) propagates; the transaction rolls back on drop.
fn apply_txn(db: &Database, plan: &TxnPlan, first: bool) -> Result<(), StorageError> {
    let mut tx = db.begin()?;
    if first {
        create_table(&mut tx)?;
    }
    for op in &plan.ops {
        match *op {
            Op::Insert {
                id,
                v,
                d_len,
                blob_len,
            } => {
                let b = match blob_len {
                    Some(n) => RowValue::Blob(tx.put_blob(&blob_bytes(id, v, n))?),
                    None => RowValue::Null,
                };
                tx.insert(
                    TABLE,
                    vec![
                        RowValue::U64(id),
                        RowValue::I64(v),
                        tag_value(v),
                        RowValue::Bytes(d_bytes(id, v, d_len)),
                        b,
                    ],
                )?;
            }
            Op::Update {
                id,
                v,
                d_len,
                blob_len,
            } => {
                let old = tx.get(TABLE, id)?.expect("plan updates live rows only");
                if let RowValue::Blob(old_blob) = old[4] {
                    tx.delete_blob(old_blob)?;
                }
                let b = match blob_len {
                    Some(n) => RowValue::Blob(tx.put_blob(&blob_bytes(id, v, n))?),
                    None => RowValue::Null,
                };
                tx.update(
                    TABLE,
                    id,
                    vec![
                        RowValue::Null,
                        RowValue::I64(v),
                        tag_value(v),
                        RowValue::Bytes(d_bytes(id, v, d_len)),
                        b,
                    ],
                )?;
            }
            Op::Delete { id } => {
                let old = tx.delete(TABLE, id)?;
                if let RowValue::Blob(old_blob) = old[4] {
                    tx.delete_blob(old_blob)?;
                }
            }
        }
    }
    tx.commit()
}

/// Reads the reopened database back into shadow-model form (including full
/// BLOB contents), or `None` if the table does not exist.
fn dump(db: &Database) -> State {
    let mut tx = db.begin().unwrap();
    if !tx.table_names().contains(&TABLE.to_string()) {
        return None;
    }
    let mut m = BTreeMap::new();
    for row in tx.scan(TABLE).unwrap() {
        let RowValue::U64(id) = row[0] else {
            panic!("bad key {row:?}")
        };
        let RowValue::I64(v) = row[1] else {
            panic!("bad v {row:?}")
        };
        let t = match row[2] {
            RowValue::Text(ref t) => Some(t.clone()),
            RowValue::Null => None,
            ref other => panic!("bad t {other:?}"),
        };
        let RowValue::Bytes(ref d) = row[3] else {
            panic!("bad d {row:?}")
        };
        let b = match row[4] {
            RowValue::Blob(bid) => Some(tx.get_blob(bid).unwrap()),
            RowValue::Null => None,
            ref other => panic!("bad blob column {other:?}"),
        };
        let d = d.clone();
        m.insert(id, ModelRow { v, t, d, b });
    }
    // The index must answer for exactly the rows the scan just returned.
    let mut by_tag: BTreeMap<Option<&String>, Vec<u64>> = BTreeMap::new();
    for (id, row) in &m {
        by_tag.entry(row.t.as_ref()).or_default().push(*id);
    }
    for (t, ids) in by_tag {
        let value = t.map_or(RowValue::Null, |t| RowValue::Text(t.clone()));
        let found = tx.find(TABLE, "T", &value).unwrap();
        let found: Vec<u64> = found.iter().map(|r| r[0].as_u64().unwrap()).collect();
        assert_eq!(found, ids, "find({value:?}) disagrees with the scan");
    }
    Some(m)
}

/// Runs plans until the first error, tracking the shadow model. Returns
/// `(committed, staged, failed)`: the model after the last successful
/// commit, the model including the in-flight transaction at the moment of
/// failure (equal to `committed` if nothing failed), and whether a failure
/// occurred.
fn run_plans(db: &Database, plans: &[TxnPlan]) -> (State, State, bool) {
    let mut committed: State = None;
    for (i, plan) in plans.iter().enumerate() {
        let mut staged = committed.clone();
        model_apply(&mut staged, plan, i == 0);
        match apply_txn(db, plan, i == 0) {
            Ok(()) => committed = staged,
            Err(_) => return (committed, staged, true),
        }
    }
    (committed.clone(), committed, false)
}

// ---------------------------------------------------------------------------
// 1. Failpoint sweep: crash at every durability site × every occurrence
// ---------------------------------------------------------------------------

#[test]
fn failpoint_sweep_recovers_at_every_durability_site() {
    const TXNS: usize = 5;
    for seed in [0xA11CE_u64, 0xB0B0, 0xCAFE] {
        let plans = make_plans(seed, TXNS);

        // Counting run: how often does the workload pass each site?
        // (Reset after open so bootstrap commits do not shift the counts.)
        let path = tmp_db(&format!("fp-count-{seed:x}"));
        let db = Database::open(&path).unwrap();
        failpoint::reset();
        let (full_model, _, failed) = run_plans(&db, &plans);
        assert!(!failed, "counting run must not fail");
        let counts: Vec<(&'static str, u64)> = failpoint::ALL
            .iter()
            .map(|s| (*s, failpoint::hits(s)))
            .collect();
        failpoint::reset();
        drop(db);

        for &(site, n_hits) in &counts {
            assert!(n_hits > 0, "site {site} never exercised by the workload");
            for n in 1..=n_hits {
                let tag = format!("fp-{}-{seed:x}-{n}", site.replace('.', "_"));
                let path = tmp_db(&tag);
                let db = Database::open(&path).unwrap();
                failpoint::reset();
                failpoint::arm(site, n);
                let (committed, staged, failed) = run_plans(&db, &plans);
                assert!(
                    failed,
                    "armed failpoint {site}@{n} must fire (seed {seed:x})"
                );
                failpoint::reset();
                drop(db);

                let db = Database::open(&path)
                    .unwrap_or_else(|e| panic!("reopen after {site}@{n} failed: {e}"));
                let report = db.check_integrity();
                assert!(
                    report.is_ok(),
                    "integrity after {site}@{n} (seed {seed:x}):\n{report}"
                );
                // The process survived, so every written byte survived: a
                // crash before the commit record is appended loses exactly
                // the in-flight transaction; a crash at any later site
                // leaves a complete WAL image to replay.
                let expected = if site == failpoint::WAL_APPEND {
                    &committed
                } else {
                    &staged
                };
                let got = dump(&db);
                assert_eq!(
                    &got, expected,
                    "state after {site}@{n} (seed {seed:x}) diverged from shadow model"
                );

                // The recovered database must accept further writes.
                let mut tx = db.begin().unwrap();
                if got.is_none() {
                    create_table(&mut tx).unwrap();
                }
                tx.insert(
                    TABLE,
                    vec![
                        RowValue::U64(999_999),
                        RowValue::I64(-1),
                        tag_value(-1),
                        RowValue::Bytes(vec![0xEE; 8]),
                        RowValue::Null,
                    ],
                )
                .unwrap();
                tx.commit().unwrap();
            }
        }
        let _ = full_model;
    }
}

// ---------------------------------------------------------------------------
// 2. FaultyBackend sweep: crash at every byte-level operation
// ---------------------------------------------------------------------------

#[test]
fn faulty_backend_crash_at_every_operation() {
    const TXNS: usize = 4;
    for (torn, drop_unsynced) in [(false, false), (true, false), (true, true)] {
        let seed = 0xD15C_u64 ^ ((torn as u64) << 8) ^ ((drop_unsynced as u64) << 9);
        let plans = make_plans(seed, TXNS);

        // Counting run over fault-free simulated stores.
        let data = SimStore::new();
        let wal = SimStore::new();
        let inj = FaultInjector::new(CrashSpec::count_only(seed));
        let db = open_eager(data.backend(&inj), wal.backend(&inj)).unwrap();
        let (final_model, _, failed) = run_plans(&db, &plans);
        assert!(!failed, "counting run must not fail");
        drop(db);
        let total_ops = inj.ops();
        assert!(total_ops > 50, "workload too small to be interesting");

        for op in 1..=total_ops {
            let spec = CrashSpec {
                seed,
                crash_at_op: Some(op),
                torn_writes: torn,
                drop_unsynced,
                io_error_prob: 0.0,
            };
            let data = SimStore::new();
            let wal = SimStore::new();
            let inj = FaultInjector::new(spec);
            let (committed, staged) = match open_eager(data.backend(&inj), wal.backend(&inj)) {
                // Crash during bootstrap: nothing was ever committed.
                Err(_) => (None, None),
                Ok(db) => {
                    let (committed, staged, _) = run_plans(&db, &plans);
                    (committed, staged)
                }
            };
            assert!(
                inj.crashed(),
                "op {op}/{total_ops} (torn={torn}, drop={drop_unsynced}): crash never fired"
            );

            // Reopen only what survived the crash, with no further faults.
            let db = open_eager(
                MemBackend::from_bytes(data.surviving_bytes()),
                MemBackend::from_bytes(wal.surviving_bytes()),
            )
            .unwrap_or_else(|e| {
                panic!("salvage reopen after op {op} (torn={torn}, drop={drop_unsynced}): {e}")
            });
            let report = db.check_integrity();
            assert!(
                report.is_ok(),
                "integrity after op {op} (torn={torn}, drop={drop_unsynced}):\n{report}"
            );
            let got = dump(&db);
            assert!(
                got == committed || got == staged,
                "op {op} (torn={torn}, drop={drop_unsynced}): recovered state is neither the \
                 last committed model nor the in-flight one"
            );
        }
        let _ = final_model;
    }
}

// ---------------------------------------------------------------------------
// 3. Salvage-mode open
// ---------------------------------------------------------------------------

#[test]
fn torn_data_tail_and_corrupt_wal_tail_reopen_in_salvage_mode() {
    let path = tmp_db("salvage-torn");
    let plans = make_plans(0x5EED, 4);
    let db = Database::open(&path).unwrap();
    let (model, _, failed) = run_plans(&db, &plans);
    assert!(!failed);
    drop(db);

    // A torn trailing page on the data file (not a page multiple) plus
    // garbage after the WAL header: both must be salvaged, not fatal.
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(&path)
        .unwrap();
    f.write_all(&[0xAB; 1234]).unwrap();
    drop(f);
    let mut w = std::fs::OpenOptions::new()
        .append(true)
        .open(wal_path_for(&path))
        .unwrap();
    w.write_all(b"this is not a wal record").unwrap();
    drop(w);

    let db = Database::open(&path).expect("salvage open must succeed");
    let report = db.check_integrity();
    assert!(report.is_ok(), "integrity after salvage:\n{report}");
    assert_eq!(dump(&db), model, "salvage must not lose committed data");
}

#[test]
fn corrupt_wal_header_is_quarantined_on_open() {
    let path = tmp_db("salvage-quarantine");
    let plans = make_plans(0xFACE, 3);
    let db = Database::open(&path).unwrap();
    let (model, _, failed) = run_plans(&db, &plans);
    assert!(!failed);
    // Under deferred checkpointing, recent commits are durable only in the
    // WAL; fold them into the data file so the stomp below destroys no
    // committed state.
    db.checkpoint().unwrap();
    drop(db);

    // Stomp the WAL magic: the file is unrecognizable and must be moved
    // aside (never deleted) so the database still opens.
    let wal = wal_path_for(&path);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes[..4].copy_from_slice(b"XXXX");
    std::fs::write(&wal, &bytes).unwrap();

    let db = Database::open(&path).expect("open must quarantine the bad WAL");
    assert_eq!(dump(&db), model, "data file contents must be intact");
    assert!(db.check_integrity().is_ok());

    let quarantined = PathBuf::from(format!("{}.corrupt-1", wal.display()));
    assert!(
        quarantined.exists(),
        "corrupt WAL must be preserved at {quarantined:?}"
    );
    assert_eq!(
        std::fs::read(&quarantined).unwrap(),
        bytes,
        "quarantined WAL must hold the original bytes"
    );
}

// ---------------------------------------------------------------------------
// 4. Transient I/O errors
// ---------------------------------------------------------------------------

#[test]
fn transient_io_errors_leave_a_recoverable_store() {
    let seed = 0x7EA5_u64;
    let plans = make_plans(seed, 6);
    let spec = CrashSpec {
        seed,
        crash_at_op: None,
        torn_writes: false,
        drop_unsynced: false,
        io_error_prob: 0.08,
    };
    let data = SimStore::new();
    let wal = SimStore::new();
    let inj = FaultInjector::new(spec);
    let (committed, staged) = match open_eager(data.backend(&inj), wal.backend(&inj)) {
        Err(_) => (None, None),
        Ok(db) => {
            // Stop at the first failed commit: the on-disk image is then
            // either the pre-transaction or the post-transaction state.
            let (committed, staged, _) = run_plans(&db, &plans);
            (committed, staged)
        }
    };
    assert!(
        inj.transients() > 0,
        "seed {seed:x} produced no transient errors; pick another seed"
    );
    assert!(!inj.crashed(), "transient spec must never hard-crash");

    let db = open_eager(
        MemBackend::from_bytes(data.bytes()),
        MemBackend::from_bytes(wal.bytes()),
    )
    .expect("reopen after transient errors");
    let report = db.check_integrity();
    assert!(report.is_ok(), "integrity after transients:\n{report}");
    let got = dump(&db);
    assert!(
        got == committed || got == staged,
        "state after transient errors is neither committed nor in-flight model"
    );
}

// ---------------------------------------------------------------------------
// 5. Group commit under concurrent writers: a crash mid-batch keeps every
//    acknowledged commit and recovers a per-writer prefix (all-or-prefix)
// ---------------------------------------------------------------------------

#[test]
fn group_commit_crash_keeps_acked_commits_and_prefix_order() {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    const WRITERS: u64 = 4;
    const TXNS_PER_WRITER: u64 = 12;

    let mut total_acked = 0u64;
    for (i, &crash_op) in [23u64, 41, 67, 97, 131].iter().enumerate() {
        let seed = 0x6C0D_u64 + i as u64;
        let data = SimStore::new();
        let wal = SimStore::new();
        let inj = FaultInjector::new(CrashSpec {
            seed,
            crash_at_op: Some(crash_op),
            torn_writes: true,
            drop_unsynced: true,
            io_error_prob: 0.0,
        });
        // Deferred mode with checkpoints disabled: every commit's durability
        // rides exclusively on the group-commit WAL fsync.
        let opts = DbOptions {
            group_commit_window: Duration::from_micros(200),
            checkpoint_commits: u64::MAX,
            checkpoint_wal_bytes: u64::MAX,
            ..DbOptions::default()
        };
        let setup_ok = (|| {
            let db = Database::open_with(
                Source::Backends {
                    data: Box::new(data.backend(&inj)),
                    wal: Box::new(wal.backend(&inj)),
                },
                opts,
            )?;
            let mut tx = db.begin()?;
            create_table(&mut tx)?;
            tx.commit()?;
            Ok::<_, StorageError>(db)
        })();
        let acked: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
        if let Ok(db) = &setup_ok {
            std::thread::scope(|s| {
                for w in 0..WRITERS {
                    let acked = &acked;
                    s.spawn(move || {
                        for seq in 1..=TXNS_PER_WRITER {
                            let Ok(mut tx) = db.begin() else { return };
                            let key = w * 1_000 + seq;
                            let row = vec![
                                RowValue::U64(key),
                                RowValue::I64(seq as i64),
                                tag_value(seq as i64),
                                RowValue::Bytes(vec![w as u8; 16]),
                                RowValue::Null,
                            ];
                            if tx.insert(TABLE, row).is_err() {
                                return;
                            }
                            if tx.commit().is_err() {
                                return;
                            }
                            // commit() returned Ok: this row is durable.
                            acked[w as usize].store(seq, Ordering::Release);
                        }
                    });
                }
            });
        }
        drop(setup_ok);
        assert!(
            inj.crashed(),
            "crash op {crash_op} never fired — workload too small"
        );

        // Reopen only what a real disk would hold, with no further faults.
        let db = open_eager(
            MemBackend::from_bytes(data.surviving_bytes()),
            MemBackend::from_bytes(wal.surviving_bytes()),
        )
        .unwrap_or_else(|e| panic!("reopen after group-commit crash at op {crash_op}: {e}"));
        let report = db.check_integrity();
        assert!(
            report.is_ok(),
            "integrity after crash at op {crash_op}:\n{report}"
        );
        let mut tx = db.begin().unwrap();
        let rows = if tx.table_names().iter().any(|t| t == TABLE) {
            tx.scan(TABLE).unwrap()
        } else {
            Vec::new() // crashed during setup; nothing was acknowledged
        };
        let mut recovered: Vec<Vec<u64>> = vec![Vec::new(); WRITERS as usize];
        for row in &rows {
            let key = row[0].as_u64().unwrap();
            recovered[(key / 1_000) as usize].push(key % 1_000);
        }
        for (w, seqs) in recovered.iter_mut().enumerate() {
            seqs.sort_unstable();
            let k = seqs.len() as u64;
            assert_eq!(
                *seqs,
                (1..=k).collect::<Vec<_>>(),
                "writer {w}: recovered commits are not a prefix (crash op {crash_op})"
            );
            let acked_hi = acked[w].load(Ordering::Acquire);
            assert!(
                k >= acked_hi,
                "writer {w}: commit {acked_hi} was acknowledged but only {k} survived \
                 (crash op {crash_op})"
            );
            total_acked += acked_hi;
        }
    }
    assert!(
        total_acked > 0,
        "no commit was ever acknowledged before a crash — the sweep is vacuous"
    );
}

// ---------------------------------------------------------------------------
// 6. MediaDb object-level atomicity across the same failpoints
// ---------------------------------------------------------------------------

#[test]
fn mediadb_update_is_atomic_across_every_failpoint() {
    let v1 = ImageObject {
        name: "ct".into(),
        quality: 1,
        texts: String::new(),
        cm: Vec::new(),
        data: (0..5000u32).map(|i| i as u8).collect(),
    };
    let v2 = ImageObject {
        name: "ct".into(),
        quality: 2,
        texts: "relabelled".into(),
        cm: Vec::new(),
        data: (0..7000u32).map(|i| (i as u8).wrapping_mul(3)).collect(),
    };

    for &site in failpoint::ALL {
        let path = tmp_db(&format!("mediadb-{}", site.replace('.', "_")));
        let id = {
            let mdb = MediaDb::open(&path).unwrap();
            mdb.put_user("admin", "dr-a", AccessLevel::Write).unwrap();
            mdb.insert_image("dr-a", &v1).unwrap()
        };

        {
            // Eager checkpointing makes the single update commit cross every
            // durability site, so arming any of them must trip it.
            let db = Database::open_with(Source::Path(path.clone()), DbOptions::eager()).unwrap();
            let mdb = MediaDb::with_database(db).unwrap();
            failpoint::reset();
            failpoint::arm(site, 1);
            let res = mdb.update_image("dr-a", id, &v2);
            assert!(res.is_err(), "armed {site} must fail the update");
            failpoint::reset();
        }

        let mdb = MediaDb::open(&path).unwrap();
        let got = mdb.get_image("dr-a", id).unwrap();
        assert!(
            got.data == v1.data || got.data == v2.data,
            "{site}: image is neither fully v1 nor fully v2"
        );
        if got.data == v2.data {
            assert_eq!(got.quality, v2.quality, "{site}: torn object update");
            assert_eq!(got.texts, v2.texts, "{site}: torn object update");
        } else {
            assert_eq!(got.quality, v1.quality, "{site}: torn object update");
            assert_eq!(got.texts, v1.texts, "{site}: torn object update");
        }
        let report = mdb.database().check_integrity();
        assert!(
            report.is_ok(),
            "{site}: integrity after recovery:\n{report}"
        );
    }
}
