//! Property-based tests over the core data structures and codecs.
//!
//! The crates.io `proptest` harness is unavailable offline, so these
//! properties are exercised the classic way: a seeded RNG generates a fixed
//! number of random cases per property and every case is asserted. Failures
//! print the offending case seed so a run is reproducible by construction.

use rand::prelude::*;
use rcmo::codec::{decode, decode_prefix, encode, EncoderConfig};
use rcmo::core::cpnet::{improving_flips, samples::random_net, samples::RandomNetSpec};
use rcmo::core::{CpNet, PartialAssignment, PreferenceNet, Value, VarId};
use rcmo::imaging::GrayImage;
use rcmo::storage::{Database, RowValue};

// ---------------------------------------------------------------------
// CP-networks.

/// The optimal outcome of any random acyclic CP-net admits no improving
/// flip (it is a local — and for acyclic nets global — optimum).
#[test]
fn cpnet_optimum_is_flip_free() {
    let mut rng = StdRng::seed_from_u64(0xC0FFEE);
    for case in 0..48 {
        let spec = RandomNetSpec {
            vars: rng.gen_range(2..14),
            max_domain: rng.gen_range(2..4),
            max_parents: 3,
            seed: rng.gen_range(0..5_000u64),
        };
        let net = random_net(&spec);
        let best = net.optimal_outcome();
        assert!(
            improving_flips(&net, &best).is_empty(),
            "case {case}: {spec:?}"
        );
    }
}

/// Optimal completion respects arbitrary evidence and leaves no improving
/// flip among unconstrained variables.
#[test]
fn cpnet_completion_respects_evidence() {
    let mut rng = StdRng::seed_from_u64(0xE71DE);
    for case in 0..48 {
        let spec = RandomNetSpec {
            vars: rng.gen_range(2..12),
            max_domain: 2,
            max_parents: 2,
            seed: rng.gen_range(0..5_000u64),
        };
        let net = random_net(&spec);
        let mut ev = PartialAssignment::empty(net.len());
        for _ in 0..rng.gen_range(0..4usize) {
            let v = rng.gen_range(0..12usize);
            let val = rng.gen_range(0..2u16);
            if v < net.len() {
                ev.set(VarId(v as u32), Value(val));
            }
        }
        let out = net.optimal_completion(&ev);
        assert!(ev.consistent_with(&out), "case {case}: {spec:?}");
        for (v, val) in improving_flips(&net, &out) {
            // Any improving flip must be on an evidence variable (we are
            // optimal only among completions of the evidence).
            assert!(
                ev.get(v).is_some(),
                "case {case}: free var {v} improvable to {val} ({spec:?})"
            );
        }
    }
}

/// The binary codec round-trips arbitrary random networks exactly.
#[test]
fn cpnet_codec_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0x0DEC);
    for case in 0..48 {
        let spec = RandomNetSpec {
            vars: rng.gen_range(1..10),
            max_domain: 4,
            max_parents: 3,
            seed: rng.gen_range(0..5_000u64),
        };
        let net = random_net(&spec);
        let back = CpNet::from_bytes(&net.to_bytes()).unwrap();
        assert_eq!(back.len(), net.len(), "case {case}: {spec:?}");
        assert_eq!(back.optimal_outcome(), net.optimal_outcome());
        for i in 0..net.len() {
            let v = VarId(i as u32);
            assert_eq!(back.parents(v), net.parents(v));
            assert_eq!(back.var_name(v), net.var_name(v));
        }
    }
}

/// Preference-ordered enumeration starts at the optimum, never repeats,
/// and is exhaustive on small nets.
#[test]
fn cpnet_enumeration_is_a_permutation() {
    let mut rng = StdRng::seed_from_u64(0xE9);
    for case in 0..24 {
        let seed = rng.gen_range(0..2_000u64);
        let net = random_net(&RandomNetSpec {
            vars: 6,
            max_domain: 2,
            max_parents: 2,
            seed,
        });
        let all: Vec<_> = net
            .outcomes_by_preference(&PartialAssignment::empty(net.len()))
            .collect();
        assert_eq!(all.len(), 1 << 6, "case {case} seed {seed}");
        assert_eq!(all[0].clone(), net.optimal_outcome());
        let unique: std::collections::HashSet<_> = all.iter().cloned().collect();
        assert_eq!(unique.len(), all.len(), "case {case} seed {seed}");
    }
}

// ---------------------------------------------------------------------
// Layered image codec.

/// Encode/decode round-trips arbitrary image sizes with bounded error
/// (the finest layer's quantiser bounds per-pixel error loosely).
#[test]
fn codec_roundtrip_bounded_error() {
    let mut rng = StdRng::seed_from_u64(0x1347);
    for case in 0..24 {
        let (w, h) = (rng.gen_range(9usize..70), rng.gen_range(9usize..70));
        let seed = rng.gen_range(0..10_000u64);
        let img = GrayImage::from_fn(w, h, |x, y| {
            let v = (x as u64 * 31 + y as u64 * 17 + seed) % 251;
            v as u8
        })
        .unwrap();
        let bytes = encode(&img, &EncoderConfig::default()).unwrap();
        let out = decode(&bytes).unwrap();
        assert_eq!(out.width(), w, "case {case} {w}x{h} seed {seed}");
        assert_eq!(out.height(), h);
        let max_err = img
            .pixels()
            .iter()
            .zip(out.pixels())
            .map(|(&a, &b)| (a as i32 - b as i32).abs())
            .max()
            .unwrap();
        assert!(
            max_err <= 64,
            "case {case} {w}x{h} seed {seed}: max pixel error {max_err}"
        );
    }
}

/// Any byte prefix either decodes (to ≥1 layer) or fails cleanly — never
/// panics, never produces the wrong dimensions.
#[test]
fn codec_prefix_safety() {
    let mut rng = StdRng::seed_from_u64(0x9AFE);
    let img = GrayImage::from_fn(40, 33, |x, y| ((x * 7 + y * 13) % 256) as u8).unwrap();
    let bytes = encode(&img, &EncoderConfig::default()).unwrap();
    for _ in 0..200 {
        let cut = rng.gen_range(0..=bytes.len());
        if let Ok((out, layers)) = decode_prefix(&bytes[..cut]) {
            assert!(layers >= 1);
            assert_eq!(out.width(), 40, "cut {cut}");
            assert_eq!(out.height(), 33, "cut {cut}");
        }
    }
}

// ---------------------------------------------------------------------
// Storage engine vs. a model.

/// Random insert/update/delete workloads agree with a BTreeMap model
/// across commits and rollbacks.
#[test]
fn table_matches_model() {
    use std::collections::BTreeMap;
    let mut rng = StdRng::seed_from_u64(0x7AB1E);
    for case in 0..16 {
        let db = Database::in_memory().unwrap();
        {
            let mut tx = db.begin().unwrap();
            tx.create_table(
                "T",
                rcmo::storage::Schema::new(vec![
                    rcmo::storage::Column::new("ID", rcmo::storage::ColumnType::U64),
                    rcmo::storage::Column::new("V", rcmo::storage::ColumnType::I64),
                ])
                .unwrap(),
            )
            .unwrap();
            tx.commit().unwrap();
        }
        let mut model: BTreeMap<u64, i64> = BTreeMap::new();
        let mut tx = db.begin().unwrap();
        for step in 0..rng.gen_range(1..80usize) {
            let op = rng.gen_range(0u8..4);
            let key = rng.gen_range(0..48u64) + 1; // keys start at 1
            let val = rng.gen::<u16>() as i64;
            let ctx = format!("case {case} step {step} op {op} key {key}");
            match op {
                0 => {
                    // insert (duplicate keys must be rejected by the engine)
                    if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                        tx.insert("T", vec![RowValue::U64(key), RowValue::I64(val)])
                            .unwrap();
                        e.insert(val);
                    } else {
                        assert!(
                            tx.insert("T", vec![RowValue::U64(key), RowValue::I64(val)])
                                .is_err(),
                            "{ctx}"
                        );
                    }
                }
                1 => {
                    // update
                    if let std::collections::btree_map::Entry::Occupied(mut e) = model.entry(key) {
                        tx.update("T", key, vec![RowValue::Null, RowValue::I64(val)])
                            .unwrap();
                        e.insert(val);
                    } else {
                        assert!(
                            tx.update("T", key, vec![RowValue::Null, RowValue::I64(val)])
                                .is_err(),
                            "{ctx}"
                        );
                    }
                }
                2 => {
                    // delete
                    if model.remove(&key).is_some() {
                        tx.delete("T", key).unwrap();
                    } else {
                        assert!(tx.delete("T", key).is_err(), "{ctx}");
                    }
                }
                _ => {
                    // point lookup
                    let got = tx.get("T", key).unwrap();
                    match model.get(&key) {
                        Some(&v) => {
                            let row = got.unwrap();
                            assert_eq!(row[1].clone(), RowValue::I64(v), "{ctx}");
                        }
                        None => assert!(got.is_none(), "{ctx}"),
                    }
                }
            }
        }
        // Full scan agrees with the model, in key order.
        let rows = tx.scan("T").unwrap();
        let got: Vec<(u64, i64)> = rows
            .iter()
            .map(|r| {
                (
                    r[0].as_u64().unwrap(),
                    match r[1] {
                        RowValue::I64(v) => v,
                        _ => unreachable!(),
                    },
                )
            })
            .collect();
        let want: Vec<(u64, i64)> = model.into_iter().collect();
        assert_eq!(got, want, "case {case}");
        tx.commit().unwrap();
    }
}

/// Snapshot readers observe *exactly* the state a serial execution had at
/// the moment the snapshot was taken: never a partially-applied
/// transaction, never a later commit, never a rolled-back one — no matter
/// how many writers commit, roll back, or checkpoint after the snapshot.
///
/// Reads are defined once in the engine, so one read script
/// (`get/scan/range/count/get_blob_prefix/blob_len`) runs verbatim against
/// both transaction kinds: snapshots must agree with the shadow model at pin
/// time, and a write transaction with its own uncommitted rows and BLOBs
/// (read-your-writes).
#[test]
fn snapshot_readers_observe_serial_states() {
    use std::collections::BTreeMap;

    /// key → (value, BLOB contents).
    type Model = BTreeMap<u64, (i64, Vec<u8>)>;

    /// `$tx` is a `&ReadTransaction` or a `&mut Transaction`: the read
    /// methods share names, not a trait.
    macro_rules! check_reads {
        ($tx:expr, $model:expr, $ctx:expr) => {{
            let (tx, model, ctx): (_, &Model, String) = ($tx, $model, $ctx);
            let rows = tx.scan("T").unwrap();
            assert_eq!(rows.len(), model.len(), "{ctx}: scan length");
            assert_eq!(tx.count("T").unwrap(), model.len(), "{ctx}: count");
            for (row, (key, (val, data))) in rows.iter().zip(model) {
                assert_eq!(row[0], RowValue::U64(*key), "{ctx}: scan order");
                assert_eq!(row[1], RowValue::I64(*val), "{ctx}: key {key}");
                let RowValue::Blob(blob) = row[2] else {
                    panic!("{ctx}: key {key} has no blob: {row:?}");
                };
                assert_eq!(tx.blob_len(blob).unwrap(), data.len() as u64, "{ctx}");
                let cut = data.len() / 2 + 1;
                assert_eq!(
                    tx.get_blob_prefix(blob, cut).unwrap(),
                    data[..cut.min(data.len())],
                    "{ctx}: key {key} blob prefix"
                );
            }
            let in_range: Vec<u64> = tx
                .range("T", 8, 23)
                .unwrap()
                .iter()
                .map(|r| r[0].as_u64().unwrap())
                .collect();
            let want: Vec<u64> = model.range(8..=23).map(|(k, _)| *k).collect();
            assert_eq!(in_range, want, "{ctx}: range");
            for key in 1..32u64 {
                let got = tx.get("T", key).unwrap().map(|r| r[1].clone());
                let want = model.get(&key).map(|(v, _)| RowValue::I64(*v));
                assert_eq!(got, want, "{ctx}: get {key}");
            }
        }};
    }

    let mut rng = StdRng::seed_from_u64(0x05EE_D5A9);
    for case in 0..8 {
        let db = Database::in_memory().unwrap();
        {
            let mut tx = db.begin().unwrap();
            tx.create_table(
                "T",
                rcmo::storage::Schema::new(vec![
                    rcmo::storage::Column::new("ID", rcmo::storage::ColumnType::U64),
                    rcmo::storage::Column::new("V", rcmo::storage::ColumnType::I64),
                    rcmo::storage::Column::new("B", rcmo::storage::ColumnType::Blob),
                ])
                .unwrap(),
            )
            .unwrap();
            tx.commit().unwrap();
        }

        // Committed serial state, and the snapshots pinned along the way
        // (each paired with the model state at pin time).
        let mut model = Model::new();
        let mut pinned: Vec<(rcmo::storage::ReadTransaction<'_>, Model)> = Vec::new();

        for txn in 0..24 {
            let mut scratch = model.clone();
            let mut tx = db.begin().unwrap();
            for _ in 0..rng.gen_range(1..8usize) {
                let key = rng.gen_range(1..32u64);
                let val = rng.gen::<u16>() as i64;
                // Replaced and deleted rows free their BLOB, so later
                // transactions reuse pages a pinned snapshot still reads.
                if let Some(old) = tx.get("T", key).unwrap() {
                    tx.delete_blob(old[2].as_blob().unwrap()).unwrap();
                    if rng.gen_bool(0.5) {
                        tx.delete("T", key).unwrap();
                        scratch.remove(&key);
                        continue;
                    }
                }
                let data: Vec<u8> = (0..rng.gen_range(0..20_000usize))
                    .map(|_| rng.gen::<u8>())
                    .collect();
                let blob = RowValue::Blob(tx.put_blob(&data).unwrap());
                if scratch.contains_key(&key) {
                    tx.update("T", key, vec![RowValue::Null, RowValue::I64(val), blob])
                        .unwrap();
                } else {
                    tx.insert("T", vec![RowValue::U64(key), RowValue::I64(val), blob])
                        .unwrap();
                }
                scratch.insert(key, (val, data));
            }
            // The writer reads its own uncommitted rows and BLOBs.
            check_reads!(
                &mut tx,
                &scratch,
                format!("case {case} txn {txn}: read-your-writes")
            );
            // A snapshot taken while the writer holds uncommitted changes
            // must see the last *committed* state, not the scratch one.
            if rng.gen_bool(0.3) {
                check_reads!(
                    &db.begin_read().unwrap(),
                    &model,
                    format!("case {case} txn {txn}: mid-transaction snapshot")
                );
            }
            if rng.gen_bool(0.75) {
                tx.commit().unwrap();
                model = scratch;
            } else {
                tx.rollback();
            }
            // Occasionally pin a snapshot at this commit point and keep it
            // alive across later commits (and skipped checkpoints).
            if rng.gen_bool(0.35) {
                pinned.push((db.begin_read().unwrap(), model.clone()));
            }
            // Occasionally release an old pin so checkpoints can fold.
            if pinned.len() > 3 {
                pinned.remove(0);
            }
        }

        for (i, (snap, expect)) in pinned.iter().enumerate() {
            check_reads!(snap, expect, format!("case {case}: pinned snapshot {i}"));
        }
        drop(pinned);
        // With every snapshot released the deferred fold must go through.
        db.checkpoint().unwrap();
        check_reads!(
            &db.begin_read().unwrap(),
            &model,
            format!("case {case}: final state")
        );
    }
}

/// `find` through a secondary index returns exactly the rows a scan-and-
/// filter of the shadow model selects: on the writer (uncommitted rows
/// included), on a snapshot pinned before later commits (which it must not
/// see), after rollbacks, and after a reopen. One value is shared by 600
/// rows at the start and over 300 throughout, so its bucket spans many
/// slots and more than one leaf; `NULL` is a value like any other.
#[test]
fn index_find_matches_model() {
    use rcmo::storage::{Column, ColumnType, Schema};
    use std::collections::BTreeMap;

    /// primary key → indexed value (`None` is NULL).
    type Model = BTreeMap<u64, Option<String>>;

    fn value(name: &Option<String>) -> RowValue {
        name.clone().map_or(RowValue::Null, RowValue::Text)
    }

    fn row(id: u64, name: &Option<String>) -> Vec<RowValue> {
        vec![RowValue::U64(id), value(name), RowValue::I64(id as i64)]
    }

    /// `$tx` is a `&ReadTransaction` or a `&mut Transaction`.
    macro_rules! check_finds {
        ($tx:expr, $model:expr, $names:expr, $ctx:expr) => {{
            let (tx, model, ctx): (_, &Model, String) = ($tx, $model, $ctx);
            for name in $names {
                let found = tx.find("T", "NAME", &value(name)).unwrap();
                let want: Vec<Vec<RowValue>> = model
                    .iter()
                    .filter(|(_, n)| *n == name)
                    .map(|(id, n)| row(*id, n))
                    .collect();
                assert_eq!(found, want, "{ctx}: find {name:?}");
            }
        }};
    }

    let dir = std::env::temp_dir().join(format!("rcmo-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("index-model.db");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo::storage::db::wal_path_for(&path));

    let mut rng = StdRng::seed_from_u64(0x1D3A_F1D0);
    let hot = Some("hot".to_string());
    let mut names: Vec<Option<String>> = (0..40).map(|i| Some(format!("n{i}"))).collect();
    names.extend([None, hot.clone(), Some("never-stored".to_string())]);

    let mut model = Model::new();
    let mut db = Database::open(&path).unwrap();
    {
        let mut tx = db.begin().unwrap();
        let schema = Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("NAME", ColumnType::Text),
            Column::new("V", ColumnType::I64),
        ]);
        tx.create_table("T", schema.unwrap()).unwrap();
        tx.create_index("T", "NAME").unwrap();
        for id in 1..=600u64 {
            tx.insert("T", row(id, &hot)).unwrap();
            model.insert(id, hot.clone());
        }
        tx.commit().unwrap();
    }
    let mut next_id = 601u64;

    for round in 0..4 {
        let mut pinned: Vec<(rcmo::storage::ReadTransaction<'_>, Model)> = Vec::new();
        for txn in 0..12 {
            let ctx = format!("round {round} txn {txn}");
            let mut scratch = model.clone();
            let mut tx = db.begin().unwrap();
            for _ in 0..rng.gen_range(1..16usize) {
                let name = names[rng.gen_range(0..names.len() - 1)].clone();
                let live = scratch.keys().nth(rng.gen_range(0..scratch.len())).copied();
                match (rng.gen_range(0..10u32), live) {
                    (0..=4, _) | (_, None) => {
                        tx.insert("T", row(next_id, &name)).unwrap();
                        scratch.insert(next_id, name);
                        next_id += 1;
                    }
                    (5..=7, Some(id)) => {
                        tx.update("T", id, row(id, &name)).unwrap();
                        scratch.insert(id, name);
                    }
                    (_, Some(id)) => {
                        tx.delete("T", id).unwrap();
                        scratch.remove(&id);
                    }
                }
            }
            check_finds!(&mut tx, &scratch, &names, format!("{ctx}: writer"));
            if rng.gen_bool(0.7) {
                tx.commit().unwrap();
                model = scratch;
            } else {
                tx.rollback();
            }
            if rng.gen_bool(0.4) {
                pinned.push((db.begin_read().unwrap(), model.clone()));
            }
        }
        check_finds!(
            &mut db.begin().unwrap(),
            &model,
            &names,
            format!("round {round}: end")
        );
        for (i, (snap, expect)) in pinned.iter().enumerate() {
            check_finds!(snap, expect, &names, format!("round {round}: pinned {i}"));
        }
        drop(pinned);
        drop(db);
        db = Database::open(&path).unwrap();
        check_finds!(
            &db.begin_read().unwrap(),
            &model,
            &names,
            format!("round {round}: reopened")
        );
        let report = db.check_integrity();
        assert!(report.is_ok(), "round {round}: {report:?}");
    }
    assert!(
        model.values().filter(|n| **n == hot).count() >= 300,
        "the shared value must still fill a multi-leaf bucket"
    );
    drop(db);
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(rcmo::storage::db::wal_path_for(&path));
}

/// BLOBs of arbitrary contents round-trip exactly, including prefixes.
#[test]
fn blob_roundtrip() {
    let mut rng = StdRng::seed_from_u64(0xB10B);
    for case in 0..12 {
        let len = rng.gen_range(0..60_000usize);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let cut = rng.gen_range(0..70_000usize);
        let db = Database::in_memory().unwrap();
        let mut tx = db.begin().unwrap();
        let id = tx.put_blob(&data).unwrap();
        assert_eq!(tx.get_blob(id).unwrap(), data, "case {case} len {len}");
        let prefix = tx.get_blob_prefix(id, cut).unwrap();
        assert_eq!(&prefix[..], &data[..cut.min(data.len())], "case {case}");
        assert_eq!(tx.blob_len(id).unwrap(), data.len() as u64);
    }
}

// ---------------------------------------------------------------------
// Documents.

/// Randomly shaped documents validate, serialise, and reload identically
/// (outline + optimal presentation).
#[test]
fn document_roundtrip() {
    use rcmo::core::{FormKind, MediaRef, MultimediaDocument, PresentationForm};
    let mut rng = StdRng::seed_from_u64(0xD0C);
    for case in 0..32 {
        let mut doc = MultimediaDocument::new("prop");
        let mut composites = vec![doc.root()];
        let shape_len = rng.gen_range(1..12usize);
        for i in 0..shape_len {
            let parent = composites[i % composites.len()];
            match rng.gen_range(0u8..3) {
                0 => {
                    let c = doc.add_composite(parent, &format!("folder{i}")).unwrap();
                    composites.push(c);
                }
                1 => {
                    doc.add_primitive(
                        parent,
                        &format!("leaf{i}"),
                        MediaRef::None,
                        vec![
                            PresentationForm::new("flat", FormKind::Flat, i as u64 * 100),
                            PresentationForm::hidden(),
                        ],
                    )
                    .unwrap();
                }
                _ => {
                    doc.add_primitive(
                        parent,
                        &format!("media{i}"),
                        MediaRef::Inline(vec![i as u8; 16]),
                        vec![
                            PresentationForm::new("flat", FormKind::Flat, 1_000),
                            PresentationForm::new("icon", FormKind::Icon, 10),
                            PresentationForm::hidden(),
                        ],
                    )
                    .unwrap();
                }
            }
        }
        doc.validate().unwrap();
        let back = MultimediaDocument::from_bytes(&doc.to_bytes()).unwrap();
        assert_eq!(back.outline(), doc.outline(), "case {case}");
        assert_eq!(back.net().optimal_outcome(), doc.net().optimal_outcome());
        assert_eq!(back.num_components(), doc.num_components());
    }
}

// ---------------------------------------------------------------------
// Robustness: decoders must never panic on hostile bytes.

/// Random bytes into every public decoder: errors are fine, panics are
/// not, and truncations of valid streams never crash either.
#[test]
fn decoders_never_panic() {
    let mut rng = StdRng::seed_from_u64(0xF00);
    for _ in 0..64 {
        let len = rng.gen_range(0..400usize);
        let data: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
        let _ = rcmo::codec::decode(&data);
        let _ = rcmo::codec::decode_prefix(&data);
        let _ = CpNet::from_bytes(&data);
        let _ = rcmo::core::MultimediaDocument::from_bytes(&data);
        let _ = rcmo::imaging::GrayImage::from_bytes(&data);
        let _ = rcmo::imaging::AnnotatedImage::from_bytes(&data);
        let _ = rcmo::audio::segment::decode_segments(&data);
    }
}

/// Truncating a valid document stream at any point yields a clean error
/// (or, at full length, the document).
#[test]
fn document_truncation_is_clean() {
    use rcmo::core::{FormKind, MediaRef, MultimediaDocument, PresentationForm};
    let mut doc = MultimediaDocument::new("t");
    doc.add_primitive(
        doc.root(),
        "leaf",
        MediaRef::Inline(vec![1, 2, 3]),
        vec![
            PresentationForm::new("flat", FormKind::Flat, 10),
            PresentationForm::hidden(),
        ],
    )
    .unwrap();
    let bytes = doc.to_bytes();
    for cut in 0..=bytes.len() {
        match MultimediaDocument::from_bytes(&bytes[..cut]) {
            Ok(d) => assert_eq!(
                cut,
                bytes.len(),
                "only the full stream decodes: {}",
                d.title()
            ),
            Err(_) => assert!(cut < bytes.len()),
        }
    }
}

/// The annotated-image overlay codec round-trips arbitrary elements.
#[test]
fn overlay_roundtrip() {
    use rcmo::imaging::{AnnotatedImage, GrayImage, LineElement, TextElement};
    let mut rng = StdRng::seed_from_u64(0x0E1);
    for case in 0..32 {
        let mut img = AnnotatedImage::new(GrayImage::new(32, 32).unwrap());
        for _ in 0..rng.gen_range(0..6usize) {
            let text: String = (0..rng.gen_range(0..12usize))
                .map(|_| (b'a' + rng.gen_range(0..26u8)) as char)
                .collect();
            img.add_text(TextElement {
                x: rng.gen_range(0..64usize),
                y: rng.gen_range(0..64usize),
                text,
                intensity: 200,
                scale: 1,
            });
        }
        for _ in 0..rng.gen_range(0..6usize) {
            img.add_line(LineElement {
                x0: rng.gen_range(-64i64..128),
                y0: rng.gen_range(-64i64..128),
                x1: rng.gen_range(-64i64..128),
                y1: rng.gen_range(-64i64..128),
                intensity: 100,
            });
        }
        let back = AnnotatedImage::from_bytes(&img.to_bytes()).unwrap();
        assert_eq!(&back, &img, "case {case}");
        let via_parts =
            AnnotatedImage::from_parts(img.base().clone(), &img.overlay_to_bytes()).unwrap();
        assert_eq!(via_parts, img, "case {case}");
        // Rendering never panics, whatever the coordinates.
        let _ = back.render();
    }
}

// ---------------------------------------------------------------------
// Write-ahead log under crash injection.

/// WAL replay recovers exactly the transactions whose commit record
/// survived a torn tail write, with all their page images intact — a crash
/// at *any* byte position loses only uncommitted work.
#[test]
fn wal_replay_recovers_committed_state_under_torn_tails() {
    use rcmo::storage::wal::{Wal, WalRecord};
    use rcmo::storage::{PageId, PAGE_SIZE};
    use std::collections::HashMap;

    let mut rng = StdRng::seed_from_u64(0x7EA6_7A11);
    for case in 0..40 {
        // Build a random log: a few transactions, each dirtying a few
        // pages; ~1 in 5 never commits. Track the byte offset at which
        // each record ends, plus each transaction's commit end offset.
        let mut wal = Wal::in_memory();
        let mut record_ends: Vec<u64> = Vec::new();
        let mut commit_end: HashMap<u64, u64> = HashMap::new();
        // Model of what each transaction wrote, in log order.
        let mut writes: Vec<(u64, PageId, u8)> = Vec::new();
        let n_txns = rng.gen_range(1..6u64);
        for txn in 1..=n_txns {
            for _ in 0..rng.gen_range(1..4usize) {
                let page = PageId(rng.gen_range(0..8u64));
                let fill = rng.gen_range(0..=255u8);
                wal.log_page(txn, page, &[fill; PAGE_SIZE]).unwrap();
                record_ends.push(wal.len().unwrap());
                writes.push((txn, page, fill));
            }
            if rng.gen_bool(0.8) {
                wal.log_commit(txn).unwrap();
                let end = wal.len().unwrap();
                record_ends.push(end);
                commit_end.insert(txn, end);
            }
        }
        let total = wal.len().unwrap();

        // Crash injection: tear the log at a random byte (anywhere from
        // "right after the magic" to "nothing lost at all").
        let cut = rng.gen_range(4..=total);
        wal.backend_mut().set_len(cut).unwrap();

        // Records are decoded iff they fit entirely within the cut, and
        // a transaction survives iff its commit record does.
        let expect_records = record_ends.iter().filter(|&&e| e <= cut).count();
        let expect_committed: Vec<u64> = commit_end
            .iter()
            .filter(|(_, &e)| e <= cut)
            .map(|(&t, _)| t)
            .collect();

        let records = wal.records().unwrap();
        assert_eq!(records.len(), expect_records, "case {case} cut {cut}");
        let (images, committed) = wal.committed_images().unwrap();
        assert_eq!(
            {
                let mut c: Vec<u64> = committed.iter().copied().collect();
                c.sort_unstable();
                c
            },
            {
                let mut c = expect_committed.clone();
                c.sort_unstable();
                c
            },
            "case {case} cut {cut}"
        );

        // Redo-only WAL: a committed transaction's page images all precede
        // its commit, so every one of its writes must be replayed, in
        // order — fold both the model and the replay into final page
        // states and compare.
        let mut want: HashMap<PageId, u8> = HashMap::new();
        for &(txn, page, fill) in &writes {
            if committed.contains(&txn) {
                want.insert(page, fill);
            }
        }
        let mut got: HashMap<PageId, u8> = HashMap::new();
        for (page, image) in &images {
            assert!(image.iter().all(|&b| b == image[0]), "uniform fill");
            got.insert(*page, image[0]);
        }
        assert_eq!(got, want, "case {case} cut {cut}");

        // Uncommitted writes never replay.
        for r in &records {
            if let WalRecord::PageImage { txn, .. } = r {
                assert!(
                    committed.contains(txn)
                        || images.iter().all(|(p, i)| {
                            writes
                                .iter()
                                .any(|&(t, wp, f)| committed.contains(&t) && wp == *p && f == i[0])
                        }),
                    "case {case}: replayed an uncommitted image"
                );
            }
        }
    }
}

/// A flipped byte anywhere in the log stops replay at the damaged record:
/// everything before it is recovered, nothing after it leaks through, and
/// decoding never panics.
#[test]
fn wal_corruption_never_panics_and_keeps_the_clean_prefix() {
    use rcmo::storage::wal::Wal;
    use rcmo::storage::{PageId, PAGE_SIZE};

    let mut rng = StdRng::seed_from_u64(0xBAD_C0DE);
    for case in 0..40 {
        let mut wal = Wal::in_memory();
        let mut record_ends: Vec<u64> = vec![4];
        let n_txns = rng.gen_range(1..5u64);
        for txn in 1..=n_txns {
            let page = PageId(txn);
            wal.log_page(txn, page, &[txn as u8; PAGE_SIZE]).unwrap();
            record_ends.push(wal.len().unwrap());
            wal.log_commit(txn).unwrap();
            record_ends.push(wal.len().unwrap());
        }
        let total = wal.len().unwrap();

        let flip_at = rng.gen_range(4..total);
        let mut byte = [0u8; 1];
        wal.backend_mut().read_at(flip_at, &mut byte).unwrap();
        byte[0] ^= 1 << rng.gen_range(0..8u32);
        wal.backend_mut().write_at(flip_at, &byte).unwrap();

        // Replay must stop at (or before) the record containing the flip.
        let clean_records = record_ends
            .iter()
            .filter(|&&e| e <= flip_at)
            .count()
            .saturating_sub(1); // drop the sentinel at offset 4
        let records = wal.records().unwrap();
        assert!(
            records.len() <= clean_records + 1,
            "case {case}: replay ran past the damage ({} > {})",
            records.len(),
            clean_records + 1,
        );
        // CRC catches the damaged record itself, so the decoded count is
        // exactly the clean prefix.
        assert_eq!(records.len(), clean_records, "case {case} flip {flip_at}");
        // And a commit that survived keeps its page image intact.
        let (images, committed) = wal.committed_images().unwrap();
        for (page, image) in &images {
            assert!(committed.contains(&page.0), "case {case}");
            assert!(image.iter().all(|&b| b == page.0 as u8), "case {case}");
        }
    }
}

// ---------------------------------------------------------------------
// Change-log resync.

/// Resync at the exact eviction boundary: for every `last_seen` around the
/// oldest-retained sequence number, `events_since` either replays a dense,
/// gapless tail running `last_seen + 1 ..= last_seq` (the `Resync::Events`
/// path) or reports "beyond the horizon" (forcing `Resync::Snapshot`) —
/// with no off-by-one gap and no duplicated event on either side of the
/// edge.
#[test]
fn change_log_resync_has_no_gap_at_the_eviction_boundary() {
    use rcmo::server::{ChangeLog, RoomEvent};

    let mut rng = StdRng::seed_from_u64(0x0B0B_5EA1);
    for case in 0..80 {
        let capacity = rng.gen_range(1..20usize);
        let pushed = rng.gen_range(0..60u64);
        let mut log = ChangeLog::new(capacity);
        for i in 1..=pushed {
            log.push(RoomEvent::Chat {
                user: "u".into(),
                text: format!("m{i}"),
            });
        }
        let last = log.last_seq();
        assert_eq!(last, pushed, "case {case}");
        let first = log.first_retained_seq();

        // Probe every last_seen within ±2 of the horizon plus the extremes.
        let mut probes = vec![0, last, last + 1, last + 5];
        if let Some(f) = first {
            for d in 0..=2u64 {
                probes.push(f.saturating_sub(d));
                probes.push(f + d);
            }
        }
        for &seen in &probes {
            match log.events_since(seen) {
                Some(tail) => {
                    if seen >= last {
                        assert!(
                            tail.is_empty(),
                            "case {case}: caught-up client (seen {seen}) got events"
                        );
                        continue;
                    }
                    let seqs: Vec<u64> = tail.iter().map(|e| e.seq).collect();
                    let want: Vec<u64> = (seen + 1..=last).collect();
                    assert_eq!(
                        seqs, want,
                        "case {case} cap {capacity} pushed {pushed} seen {seen}: \
                         tail must be dense and end at last_seq"
                    );
                }
                None => {
                    // Snapshot is only legal when the first missed event
                    // (last_seen + 1) was truly evicted.
                    let f = first.expect("snapshot forced on an empty log");
                    assert!(
                        seen + 1 < f,
                        "case {case}: snapshot forced although event {} is retained (first {f})",
                        seen + 1
                    );
                }
            }
        }

        // The boundary itself, when eviction has happened: last_seen ==
        // first_retained - 1 must still replay; one further back must not.
        if let Some(f) = first {
            if f > 1 {
                assert!(
                    log.events_since(f - 1).is_some(),
                    "case {case}: replay lost at last_seen == first_retained - 1"
                );
                assert!(
                    log.events_since(f - 2).is_none(),
                    "case {case}: replay claimed an evicted event at first_retained - 2"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Broadcast fan-out.

/// The bounded per-member queues deliver the same gap-free total order
/// the pre-refactor per-clone channels did: for any random mix of
/// members, roles, and actions, every member that keeps draining observes
/// a dense sequence `join_seq..=last_seq` with payloads identical across
/// members — encode-once fan-out changes the cost, never the stream.
#[test]
fn fanout_queues_preserve_the_broadcast_total_order() {
    use rcmo::mediadb::{AccessLevel, DocumentObject, MediaDb};
    use rcmo::server::{Action, InteractionServer, JoinRequest, SequencedEvent};
    use std::sync::Arc;

    let mut rng = StdRng::seed_from_u64(0xFA_2007);
    for case in 0..24 {
        let db = MediaDb::in_memory().unwrap();
        let members = rng.gen_range(2..9usize);
        for m in 0..members {
            db.put_user("admin", &format!("u{m}"), AccessLevel::Write)
                .unwrap();
        }
        let mut doc = rcmo::core::MultimediaDocument::new("lecture notes");
        doc.add_primitive(
            doc.root(),
            "Slide",
            rcmo::core::MediaRef::None,
            vec![
                rcmo::core::PresentationForm::new("flat", rcmo::core::FormKind::Flat, 1_000),
                rcmo::core::PresentationForm::hidden(),
            ],
        )
        .unwrap();
        doc.validate().unwrap();
        let doc_id = db
            .insert_document(
                "admin",
                &DocumentObject {
                    title: "lecture notes".into(),
                    data: doc.to_bytes(),
                },
            )
            .unwrap();

        let srv = InteractionServer::new(db);
        let room = srv.create_room("u0", "lecture", doc_id).unwrap();
        let conns: Vec<_> = (0..members)
            .map(|m| {
                let req = if m == 0 {
                    JoinRequest::presenter("u0")
                } else if rng.gen_bool(0.5) {
                    JoinRequest::moderator(&format!("u{m}"))
                } else {
                    JoinRequest::viewer(&format!("u{m}"))
                };
                srv.join(room, &req).unwrap()
            })
            .collect();

        let ops = rng.gen_range(5..40usize);
        for i in 0..ops {
            // Only the presenter mutates; everyone chats. Denied calls
            // must not perturb the stream, so sprinkle some in too.
            let actor = rng.gen_range(0..members);
            let action = Action::Chat {
                text: format!("c{case}-m{i}"),
            };
            srv.act(room, &format!("u{actor}"), action).unwrap();
            if rng.gen_bool(0.2) {
                let _ = srv.save_document(room, &format!("u{actor}"));
            }
        }

        let last = srv
            .read_room(room, |r| Ok(r.change_log().last_seq()))
            .unwrap();
        let mut reference: Option<Vec<Arc<SequencedEvent>>> = None;
        for (m, conn) in conns.iter().enumerate() {
            let got: Vec<Arc<SequencedEvent>> = conn.events.try_iter().collect();
            let seqs: Vec<u64> = got.iter().map(|e| e.seq).collect();
            assert!(
                seqs.windows(2).all(|w| w[1] == w[0] + 1),
                "case {case}: member {m} saw a gap: {seqs:?}"
            );
            assert_eq!(
                *seqs.last().unwrap(),
                last,
                "case {case}: member {m} missed the tail"
            );
            // Later joiners see a suffix of the first member's stream:
            // same events, same order, from their own join onward.
            match &reference {
                None => reference = Some(got),
                Some(r) => {
                    let offset = r.len() - got.len();
                    assert_eq!(
                        &r[offset..],
                        &got[..],
                        "case {case}: member {m} diverged from the total order"
                    );
                }
            }
        }
    }
}
