//! Chaos actors: seeded faults injected at virtual times, through the
//! same [`Actor`] interface the personas use.
//!
//! * [`ShardKiller`] — crashes a shard's process (it stops heartbeating;
//!   the failure detector declares it dead at the next epoch and the
//!   engine fails its rooms over).
//! * [`MigrationChaos`] — live-migrates random rooms between surviving
//!   shards while personas are mid-conversation.
//! * [`StorageCrasher`] — runs a full storage crash drill per step: a
//!   counting run sizes the workload, a seeded crash point interrupts a
//!   replay, and only the *surviving bytes* are reopened —
//!   `check_integrity` must come back green every time.

use crate::persona::Actor;
use crate::world::World;
use rand::prelude::*;
use rcmo_storage::{
    Backend, Column, ColumnType, CrashSpec, Database, DbOptions, FaultInjector, MemBackend,
    RowValue, Schema, SimStore, Source, StorageError,
};

/// Minimum shards left alive; the killer never drops below it.
const MIN_SURVIVORS: usize = 2;

/// Crashes random shards at seeded virtual times.
pub struct ShardKiller {
    rng: StdRng,
    kills_left: u64,
    period_us: u64,
}

impl ShardKiller {
    /// A killer with a budget of `kills` crashes.
    pub fn new(w: &World, kills: u64, period_us: u64) -> ShardKiller {
        ShardKiller {
            rng: w.rng.split("shard-killer"),
            kills_left: kills,
            period_us,
        }
    }
}

impl Actor for ShardKiller {
    fn kind(&self) -> &'static str {
        "shard-killer"
    }

    fn step(&mut self, w: &mut World) -> Option<u64> {
        if self.kills_left == 0 {
            return None;
        }
        let survivors = w.cf.surviving_shards();
        if survivors.len() > MIN_SURVIVORS {
            let victim = survivors[self.rng.gen_range(0..survivors.len())];
            w.cf.kill_shard(victim);
            w.kills += 1;
            self.kills_left -= 1;
            w.trace("shard-killer", &format!("kill shard={victim}"));
        } else {
            w.trace("shard-killer", "skip: at survivor floor");
        }
        if self.kills_left == 0 {
            None
        } else {
            Some(self.period_us)
        }
    }
}

/// Live-migrates random pre-created rooms to random surviving shards.
pub struct MigrationChaos {
    rng: StdRng,
    moves_left: u64,
    period_us: u64,
}

impl MigrationChaos {
    /// A migrator with a budget of `moves` migrations.
    pub fn new(w: &World, moves: u64, period_us: u64) -> MigrationChaos {
        MigrationChaos {
            rng: w.rng.split("migration-chaos"),
            moves_left: moves,
            period_us,
        }
    }
}

impl Actor for MigrationChaos {
    fn kind(&self) -> &'static str {
        "migration-chaos"
    }

    fn step(&mut self, w: &mut World) -> Option<u64> {
        if self.moves_left == 0 || w.rooms.is_empty() {
            return None;
        }
        self.moves_left -= 1;
        let room = w.rooms[self.rng.gen_range(0..w.rooms.len())];
        let survivors = w.cf.surviving_shards();
        let target = survivors[self.rng.gen_range(0..survivors.len())];
        match w.cf.migrate_room(room, target) {
            Ok(()) => {
                w.migrations += 1;
                w.trace(
                    "migration-chaos",
                    &format!("migrate room={room} to={target} ok"),
                );
            }
            Err(e) => {
                w.trace(
                    "migration-chaos",
                    &format!("migrate room={room} to={target} err: {e}"),
                );
            }
        }
        if self.moves_left == 0 {
            None
        } else {
            Some(self.period_us)
        }
    }
}

/// Runs one seeded storage crash drill per step and feeds the verdict to
/// the oracle.
pub struct StorageCrasher {
    rng: StdRng,
    drills_left: u64,
    period_us: u64,
}

impl StorageCrasher {
    /// A crasher with a budget of `drills` drills.
    pub fn new(w: &World, drills: u64, period_us: u64) -> StorageCrasher {
        StorageCrasher {
            rng: w.rng.split("storage-crasher"),
            drills_left: drills,
            period_us,
        }
    }
}

impl Actor for StorageCrasher {
    fn kind(&self) -> &'static str {
        "storage-crasher"
    }

    fn step(&mut self, w: &mut World) -> Option<u64> {
        if self.drills_left == 0 {
            return None;
        }
        self.drills_left -= 1;
        let seed = self.rng.next_u64();
        let torn = self.rng.gen_bool(0.5);
        let drop_unsynced = self.rng.gen_bool(0.5);
        let (op, total, ok) = crash_drill(seed, torn, drop_unsynced, &mut self.rng);
        let label = format!("op={op}/{total} torn={torn} drop={drop_unsynced}");
        w.oracle.on_crash_drill(&label, ok);
        w.trace(
            "storage-crasher",
            &format!("drill {label} {}", if ok { "ok" } else { "INTEGRITY-RED" }),
        );
        if self.drills_left == 0 {
            None
        } else {
            Some(self.period_us)
        }
    }
}

const FRAMES: usize = 64;
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

fn drill_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("V", ColumnType::I64),
        Column::new("D", ColumnType::Bytes),
        Column::new("B", ColumnType::Blob),
    ])
    .expect("valid drill schema")
}

/// A compact seeded workload: one table, three committed transactions of
/// inserts, one update pass. Small enough to run as a chaos step, big
/// enough to cross page, WAL, and blob write paths.
fn drill_workload(db: &Database, seed: u64) -> Result<(), rcmo_storage::StorageError> {
    let mut tx = db.begin()?;
    tx.create_table(TABLE, drill_schema())?;
    tx.commit()?;
    for txn in 0..3u64 {
        let mut tx = db.begin()?;
        for i in 0..6u64 {
            let id = txn * 6 + i;
            let blob = if i % 3 == 0 {
                RowValue::Blob(tx.put_blob(&vec![(seed as u8) ^ (id as u8); 600])?)
            } else {
                RowValue::Null
            };
            tx.insert(
                TABLE,
                vec![
                    RowValue::U64(id),
                    RowValue::I64((seed ^ id) as i64),
                    RowValue::Bytes(vec![id as u8; 16]),
                    blob,
                ],
            )?;
        }
        tx.commit()?;
    }
    let mut tx = db.begin()?;
    tx.insert(
        TABLE,
        vec![
            RowValue::U64(100),
            RowValue::I64(-1),
            RowValue::Bytes(vec![0xAB; 8]),
            RowValue::Null,
        ],
    )?;
    tx.commit()?;
    Ok(())
}

/// One full crash drill: counting run → seeded crash point → crash run →
/// reopen the surviving bytes → integrity check. Returns
/// `(crash op, total ops, integrity green)`.
fn crash_drill(seed: u64, torn: bool, drop_unsynced: bool, rng: &mut StdRng) -> (u64, u64, bool) {
    // Counting run over fault-free simulated stores sizes the op space.
    let data = SimStore::new();
    let wal = SimStore::new();
    let inj = FaultInjector::new(CrashSpec::count_only(seed));
    let total = {
        let db = match open_eager(data.backend(&inj), wal.backend(&inj)) {
            Ok(db) => db,
            Err(_) => return (0, 0, false),
        };
        if drill_workload(&db, seed).is_err() {
            return (0, 0, false);
        }
        drop(db);
        inj.ops()
    };
    if total == 0 {
        return (0, 0, false);
    }
    let op = rng.gen_range(0..total) + 1;

    // Crash run: the same workload, interrupted at the chosen operation.
    let data = SimStore::new();
    let wal = SimStore::new();
    let inj = FaultInjector::new(CrashSpec {
        seed,
        crash_at_op: Some(op),
        torn_writes: torn,
        drop_unsynced,
        io_error_prob: 0.0,
    });
    match open_eager(data.backend(&inj), wal.backend(&inj)) {
        // Crash during bootstrap: nothing was committed; still verify the
        // salvage reopen below.
        Err(_) => {}
        Ok(db) => {
            let _ = drill_workload(&db, seed);
        }
    }
    if !inj.crashed() {
        // The chosen op was never reached (workload erred early): treat as
        // a failed drill so it cannot silently pass.
        return (op, total, false);
    }

    // Reopen only what survived, with no further faults.
    let ok = match open_eager(
        MemBackend::from_bytes(data.surviving_bytes()),
        MemBackend::from_bytes(wal.surviving_bytes()),
    ) {
        Err(_) => false,
        Ok(db) => db.check_integrity().is_ok(),
    };
    (op, total, ok)
}
