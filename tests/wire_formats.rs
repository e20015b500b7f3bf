//! The stored byte formats, pinned.
//!
//! The paper keeps every document (with its CP-net) and every image in the
//! object database as BLOBs, so the bytes each format writes are a contract
//! with every database already on disk. Each golden test encodes one fixed
//! value, compares the result with committed bytes, and decodes the
//! committed bytes back to the value. Small formats are committed as
//! literal bytes; the two image streams as length plus FNV-1a-64.

use rcmo::audio::segment::{decode_segments, encode_segments};
use rcmo::audio::{AudioClass, Segment};
use rcmo::codec::layered::info;
use rcmo::codec::{decode_prefix, decode_resolution, encode, CodecError, EncoderConfig};
use rcmo::core::cpnet::{decode_net, encode_net};
use rcmo::core::{CpNet, FormKind, MediaRef, MultimediaDocument, PresentationForm, Value};
use rcmo::imaging::{ct_phantom, AnnotatedImage, GrayImage, LineElement, TextElement};
use rcmo::storage::catalog::{decode_row, encode_row, IndexInfo, TableInfo};
use rcmo::storage::page::{Page, PageKind};
use rcmo::storage::wal::{Wal, WalRecord};
use rcmo::storage::{BlobId, Column, ColumnType, MemBackend, PageId, RowValue, Schema, PAGE_SIZE};

fn hex(s: &str) -> Vec<u8> {
    let digits: Vec<u8> = s.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|p| u8::from_str_radix(std::str::from_utf8(p).expect("ascii"), 16).expect("hex"))
        .collect()
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Asserts `actual` equals the committed hex, printing the actual bytes so a
/// deliberate format change can be reviewed as a diff.
fn assert_golden(what: &str, actual: &[u8], golden: &str) {
    assert_eq!(
        to_hex(actual),
        to_hex(&hex(golden)),
        "{what}: encoded bytes differ from the committed golden"
    );
}

// ---------------------------------------------------------------- fixtures

fn sample_net() -> CpNet {
    let mut net = CpNet::new();
    let a = net.add_variable("a", &["x", "y"]).unwrap();
    let b = net.add_variable("b", &["u", "v", "w"]).unwrap();
    net.set_unconditional(a, &[Value(1), Value(0)]).unwrap();
    net.set_parents(b, &[a]).unwrap();
    net.set_preference(b, &[(a, Value(0))], &[Value(2), Value(0), Value(1)])
        .unwrap();
    net
}

fn sample_document() -> MultimediaDocument {
    let mut doc = MultimediaDocument::new("D");
    let root = doc.root();
    let ct = doc
        .add_primitive(
            root,
            "ct",
            MediaRef::Stored {
                media_type: "Image".to_string(),
                object_id: 7,
            },
            vec![
                PresentationForm::new("r", FormKind::Resolution(2), 300),
                PresentationForm::hidden(),
            ],
        )
        .unwrap();
    doc.add_primitive(
        root,
        "n",
        MediaRef::Inline(vec![0xAB, 0xCD]),
        vec![PresentationForm::new("c", FormKind::Custom("z".into()), 9)],
    )
    .unwrap();
    doc.add_global_operation(ct, 0, "zoom").unwrap();
    doc
}

fn sample_schema() -> Schema {
    Schema::new(vec![
        Column::new("ID", ColumnType::U64),
        Column::new("T", ColumnType::Text),
        Column::new("I", ColumnType::I64),
        Column::new("F", ColumnType::F64),
        Column::new("B", ColumnType::Bytes),
        Column::new("L", ColumnType::Blob),
    ])
    .unwrap()
}

fn sample_row() -> Vec<RowValue> {
    vec![
        RowValue::U64(7),
        RowValue::Text("ct".to_string()),
        RowValue::I64(-2),
        RowValue::F64(0.5),
        RowValue::Bytes(vec![1, 2, 3]),
        RowValue::Blob(BlobId(42)),
    ]
}

fn sample_table() -> TableInfo {
    TableInfo {
        name: "T".to_string(),
        schema: Schema::new(vec![
            Column::new("ID", ColumnType::U64),
            Column::new("NAME", ColumnType::Text),
        ])
        .unwrap(),
        heap_root: PageId(5),
        index_root: PageId(9),
        next_id: 17,
        indexes: vec![IndexInfo {
            column: 1,
            root: PageId(11),
        }],
    }
}

fn wal_bytes(wal: &mut Wal) -> Vec<u8> {
    let mut bytes = vec![0u8; wal.len().unwrap() as usize];
    wal.backend_mut().read_at(0, &mut bytes).unwrap();
    bytes
}

fn wal_records(bytes: &[u8]) -> Vec<WalRecord> {
    Wal::from_backend(Box::new(MemBackend::from_bytes(bytes.to_vec())))
        .unwrap()
        .records()
        .unwrap()
}

fn sample_gim() -> GrayImage {
    GrayImage::from_fn(33, 17, |x, y| ((x * 7 + y * 13) % 256) as u8).unwrap()
}

fn sample_overlay_image() -> AnnotatedImage {
    let mut ai = AnnotatedImage::new(GrayImage::from_fn(2, 2, |x, y| (x + 2 * y) as u8).unwrap());
    ai.add_text(TextElement {
        x: 3,
        y: 4,
        text: "HI".into(),
        intensity: 250,
        scale: 2,
    });
    ai.add_line(LineElement {
        x0: -1,
        y0: 2,
        x1: 60,
        y1: 9,
        intensity: 7,
    });
    ai
}

fn sample_lic() -> GrayImage {
    ct_phantom(16, 1, 3).unwrap()
}

fn sample_segments() -> Vec<Segment> {
    vec![
        Segment {
            frames: 0..10,
            class: AudioClass::Silence,
        },
        Segment {
            frames: 10..300,
            class: AudioClass::Music,
        },
    ]
}

// ----------------------------------------------------------------- goldens

const MMD1: &str = "\
    4d4d4431010044030000000100440000000000000200090070726573656e7465\
    64020000000000000000060068696464656e0000000000000000000200637401\
    00000001020500496d6167650700000000000000020001007204022c01000000\
    000000060068696464656e00000000000000000001006e010000000101020000\
    00abcd01000100630701007a09000000000000009c00000043504e3104000000\
    0100440200090070726573656e746564060068696464656e0200637402000100\
    72060068696464656e01006e010001006307006374277a6f6f6d02000c007a6f\
    6f6d206170706c6965640500706c61696e000001000000010000010001000000\
    0000020000000100000100010100000001000000000002000000010000010000\
    0100010000000200000001000001000101000000010000000300000001000000\
    04007a6f6f6d00000000";
const CPN1: &str = "\
    43504e3102000000010061020001007801007901006203000100750100760100\
    7700000100000001010000000100000000000200000001020000000100000000\
    01000200";
const ROW: &str = "\
    0107000000000000000402000000637402feffffffffffffff03000000000000\
    e03f0503000000010203062a00000000000000";
const ROW_NULLS: &str = "01ffffffffffffffff0000000000";
const TABLE_V2: &str = "\
    0100540200020049440004004e414d4503050000000000000009000000000000\
    001100000000000000010001000b00000000000000";
const TABLE_V1: &str = "\
    0100540200020049440004004e414d4503050000000000000009000000000000\
    001100000000000000";
const WAL_COMMIT: &str = "5243574c4308000000070000000000000000c4fa03";
const OVERLAY: &str = "\
    0300000000000000020000000100000000000000000300000004000000fa0200\
    0000020000004849020000000000000001ffffffffffffffff02000000000000\
    003c00000000000000090000000000000007";
const AIM1: &str = "\
    41494d311000000047494d310200000002000000000102030300000000000000\
    020000000100000000000000000300000004000000fa02000000020000004849\
    020000000000000001ffffffffffffffff02000000000000003c000000000000\
    00090000000000000007";
const SEGMENTS: &str = "02000000000000000a000000000a0000002c01000003";

#[test]
fn mmd1_document_golden() {
    let doc = sample_document();
    assert_golden("MMD1", &doc.to_bytes(), MMD1);
    let back = MultimediaDocument::from_bytes(&hex(MMD1)).unwrap();
    assert_eq!(back.outline(), doc.outline());
    assert_eq!(back.derived_vars(), doc.derived_vars());
    assert_eq!(back.to_bytes(), hex(MMD1));
}

#[test]
fn cpn1_net_golden() {
    let net = sample_net();
    assert_golden("CPN1", &encode_net(&net), CPN1);
    let back = decode_net(&hex(CPN1)).unwrap();
    assert_eq!(back.optimal_outcome(), net.optimal_outcome());
    assert_eq!(encode_net(&back), hex(CPN1));
}

#[test]
fn catalog_row_golden() {
    let schema = sample_schema();
    let row = sample_row();
    assert_golden("row", &encode_row(&schema, &row).unwrap(), ROW);
    assert_eq!(decode_row(&schema, &hex(ROW)).unwrap(), row);
    let mut nulls = vec![RowValue::Null; 6];
    nulls[0] = RowValue::U64(u64::MAX);
    assert_golden(
        "row of nulls",
        &encode_row(&schema, &nulls).unwrap(),
        ROW_NULLS,
    );
    assert_eq!(decode_row(&schema, &hex(ROW_NULLS)).unwrap(), nulls);
}

#[test]
fn catalog_table_info_golden() {
    let table = sample_table();
    assert_golden("TableInfo", &table.encode(), TABLE_V2);
    assert_eq!(TableInfo::decode(&hex(TABLE_V2)).unwrap(), table);
    let v1 = TableInfo {
        indexes: vec![],
        ..table
    };
    assert_golden("TableInfo without indexes", &v1.encode(), TABLE_V1);
    assert_eq!(TableInfo::decode(&hex(TABLE_V1)).unwrap(), v1);
}

#[test]
fn wal_frames_golden() {
    let mut wal = Wal::in_memory();
    wal.log_commit(7).unwrap();
    let commit_log = wal_bytes(&mut wal);
    assert_golden("WAL commit frame", &commit_log, WAL_COMMIT);
    assert_eq!(
        wal_records(&hex(WAL_COMMIT)),
        vec![WalRecord::Commit { txn: 7 }]
    );

    let mut image = [0u8; PAGE_SIZE];
    for (i, b) in image.iter_mut().enumerate() {
        *b = (i % 251) as u8;
    }
    wal.log_page(8, PageId(3), &image).unwrap();
    wal.log_commit(8).unwrap();
    let log = wal_bytes(&mut wal);
    assert_eq!(
        (log.len(), fnv1a64(&log)),
        (8255, 2198135615622234034),
        "WAL page frame"
    );
    assert_eq!(
        wal_records(&log),
        vec![
            WalRecord::Commit { txn: 7 },
            WalRecord::PageImage {
                txn: 8,
                page: PageId(3),
                image: image.to_vec(),
            },
            WalRecord::Commit { txn: 8 },
        ]
    );
}

#[test]
fn sealed_page_golden() {
    // One fixed page of each kind: the whole sealed image's FNV-1a-64 and
    // its stored checksum bytes (crc32 of bytes 4.., little-endian).
    let golden: [(PageKind, u64, &str); 6] = [
        (PageKind::Free, 10103624354349221723, "0689b671"),
        (PageKind::Meta, 8341624431822718588, "9a4c5c68"),
        (PageKind::Heap, 4025833335324510834, "809dd073"),
        (PageKind::BTreeInternal, 4075863979038577319, "053db1e4"),
        (PageKind::BTreeLeaf, 4523025913925555992, "ec3d9b95"),
        (PageKind::Blob, 5415441936079542562, "df6ec86c"),
    ];
    for (kind, fnv, sum) in golden {
        let mut page = Page::new(kind);
        for (i, b) in page.body_mut().iter_mut().enumerate() {
            *b = ((i * 31 + kind as usize) % 251) as u8;
        }
        let image = page.sealed_bytes();
        assert_eq!(
            (fnv1a64(image), to_hex(&image[..4])),
            (fnv, sum.to_string()),
            "sealed {kind:?} page"
        );
    }
}

#[test]
fn gim1_image_golden() {
    let img = sample_gim();
    let bytes = img.to_bytes();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (573, 14965126377787155065),
        "GIM1"
    );
    assert_eq!(GrayImage::from_bytes(&bytes).unwrap(), img);
}

#[test]
fn aim1_and_overlay_golden() {
    let ai = sample_overlay_image();
    assert_golden("overlay", &ai.overlay_to_bytes(), OVERLAY);
    assert_eq!(
        AnnotatedImage::from_parts(ai.base().clone(), &hex(OVERLAY)).unwrap(),
        ai
    );
    assert_golden("AIM1", &ai.to_bytes(), AIM1);
    assert_eq!(AnnotatedImage::from_bytes(&hex(AIM1)).unwrap(), ai);
}

#[test]
fn lic1_stream_golden() {
    let img = sample_lic();
    let bytes = encode(&img, &EncoderConfig::default()).unwrap();
    assert_eq!(
        (bytes.len(), fnv1a64(&bytes)),
        (284, 17124623292728962942),
        "LIC1"
    );
    let si = info(&bytes).unwrap();
    assert_eq!((si.width, si.height, si.levels), (16, 16, 4));
    assert_eq!(si.header_bytes, 11);
    assert_eq!(si.prefix_for_layer_count(si.num_layers()), bytes.len());
    let (out, layers) = decode_prefix(&bytes).unwrap();
    assert_eq!((out.width(), out.height(), layers), (16, 16, 3));
}

#[test]
fn audio_segments_golden() {
    let segs = sample_segments();
    assert_golden("segments", &encode_segments(&segs), SEGMENTS);
    assert_eq!(decode_segments(&hex(SEGMENTS)).unwrap(), segs);
}

// ------------------------------------------------- declared-count probes

/// `b"CPN1"` declaring `u32::MAX` variables, and nothing else.
#[test]
fn cpn1_variable_count_is_bounded() {
    let mut bytes = b"CPN1".to_vec();
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        decode_net(&bytes),
        Err(rcmo::core::CoreError::Codec(_))
    ));
}

/// `b"MMD1"`, an empty title, and `u32::MAX` components.
#[test]
fn mmd1_component_count_is_bounded() {
    let mut bytes = b"MMD1".to_vec();
    bytes.extend_from_slice(&0u16.to_le_bytes());
    bytes.extend_from_slice(&u32::MAX.to_le_bytes());
    assert!(matches!(
        MultimediaDocument::from_bytes(&bytes),
        Err(rcmo::core::CoreError::Codec(_))
    ));
}

/// A 12-byte overlay: the id counter, then `u32::MAX` elements.
#[test]
fn overlay_element_count_is_bounded() {
    let mut overlay = 1u64.to_le_bytes().to_vec();
    overlay.extend_from_slice(&u32::MAX.to_le_bytes());
    let base = sample_overlay_image().base().clone();
    assert!(matches!(
        AnnotatedImage::from_parts(base, &overlay),
        Err(rcmo::imaging::ImagingError::Codec(_))
    ));
}

/// `b"LIC1"` declaring a 65 535 × 65 535 image (Haar, one level) with one
/// 4-byte layer: 28 bytes whose planes would need 17 GB.
fn lic1_oversized() -> Vec<u8> {
    let mut bytes = b"LIC1".to_vec();
    bytes.extend_from_slice(&u16::MAX.to_le_bytes());
    bytes.extend_from_slice(&u16::MAX.to_le_bytes());
    bytes.extend_from_slice(&[0, 1, 1, 0]);
    bytes.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    bytes.extend_from_slice(&4u32.to_le_bytes());
    bytes.extend_from_slice(&[0; 4]);
    bytes
}

#[test]
fn lic1_declared_size_is_bounded() {
    let bytes = lic1_oversized();
    assert_eq!(bytes.len(), 28);
    assert!(matches!(info(&bytes), Err(CodecError::Malformed(_))));
    assert!(matches!(
        decode_prefix(&bytes),
        Err(CodecError::Malformed(_))
    ));
    assert!(matches!(
        decode_resolution(&bytes, 1),
        Err(CodecError::Malformed(_))
    ));
}

/// A well-formed MMD1 stream whose embedded CP-net has fewer variables
/// than the document has components.
#[test]
fn mmd1_net_must_cover_every_component() {
    let one = MultimediaDocument::new("D");
    let mut two = one.clone();
    let form = PresentationForm::new("f", FormKind::Flat, 0);
    two.add_primitive(two.root(), "x", MediaRef::None, vec![form])
        .unwrap();
    let (bytes, net, short) = (two.to_bytes(), two.net().to_bytes(), one.net().to_bytes());
    let at = bytes.windows(net.len()).position(|w| w == net).unwrap() - 4;
    let mut spliced = bytes[..at].to_vec();
    spliced.extend_from_slice(&(short.len() as u32).to_le_bytes());
    spliced.extend_from_slice(&short);
    spliced.extend_from_slice(&bytes[at + 4 + net.len()..]);
    assert!(matches!(
        MultimediaDocument::from_bytes(&spliced),
        Err(rcmo::core::CoreError::Codec(_))
    ));
}

// ------------------------------------------------ truncation and bit flips

type Decode = Box<dyn Fn(&[u8])>;

/// Opening a log replays it: `from_backend` decodes every frame.
fn decode_wal(bytes: &[u8]) {
    drop(Wal::from_backend(Box::new(MemBackend::from_bytes(
        bytes.to_vec(),
    ))));
}

/// Every golden stream, paired with the decoders that read it.
fn golden_streams() -> Vec<(&'static str, Vec<u8>, Decode)> {
    let schema = sample_schema();
    let row_schema = schema.clone();
    let base = sample_overlay_image().base().clone();
    let mut wal = Wal::in_memory();
    wal.log_commit(7).unwrap();
    wal.log_page(8, PageId(3), &[0x5A; PAGE_SIZE]).unwrap();
    wal.log_commit(8).unwrap();
    let lic = encode(&sample_lic(), &EncoderConfig::default()).unwrap();
    vec![
        (
            "MMD1",
            hex(MMD1),
            Box::new(|b| drop(MultimediaDocument::from_bytes(b))),
        ),
        ("CPN1", hex(CPN1), Box::new(|b| drop(decode_net(b)))),
        (
            "row",
            hex(ROW),
            Box::new(move |b| drop(decode_row(&row_schema, b))),
        ),
        (
            "row of nulls",
            hex(ROW_NULLS),
            Box::new(move |b| drop(decode_row(&schema, b))),
        ),
        (
            "TableInfo",
            hex(TABLE_V2),
            Box::new(|b| drop(TableInfo::decode(b))),
        ),
        (
            "TableInfo without indexes",
            hex(TABLE_V1),
            Box::new(|b| drop(TableInfo::decode(b))),
        ),
        ("WAL commit frame", hex(WAL_COMMIT), Box::new(decode_wal)),
        ("WAL page frame", wal_bytes(&mut wal), Box::new(decode_wal)),
        (
            "GIM1",
            sample_gim().to_bytes(),
            Box::new(|b| drop(GrayImage::from_bytes(b))),
        ),
        (
            "overlay",
            hex(OVERLAY),
            Box::new(move |b| drop(AnnotatedImage::from_parts(base.clone(), b))),
        ),
        (
            "AIM1",
            hex(AIM1),
            Box::new(|b| drop(AnnotatedImage::from_bytes(b))),
        ),
        (
            "LIC1",
            lic,
            Box::new(|b| {
                let _ = info(b);
                let _ = decode_prefix(b);
            }),
        ),
        (
            "LIC1 declaring 65535x65535",
            lic1_oversized(),
            Box::new(|b| {
                let _ = info(b);
                let _ = decode_prefix(b);
            }),
        ),
        (
            "segments",
            hex(SEGMENTS),
            Box::new(|b| drop(decode_segments(b))),
        ),
    ]
}

/// Every prefix and every single-bit flip of every golden stream decodes to
/// `Ok` or `Err`: no panic, and no allocation the input cannot back.
#[test]
fn truncated_and_bit_flipped_streams_never_panic() {
    for (name, stream, decode) in golden_streams() {
        let probe = |what: String, bytes: &[u8]| {
            let run = std::panic::AssertUnwindSafe(|| decode(bytes));
            assert!(
                std::panic::catch_unwind(run).is_ok(),
                "{name}: {what} panicked"
            );
        };
        for len in 0..stream.len() {
            probe(format!("prefix of {len} bytes"), &stream[..len]);
        }
        let mut flipped = stream.clone();
        for bit in 0..stream.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            probe(format!("flip of bit {bit}"), &flipped);
            flipped[bit / 8] ^= 1 << (bit % 8);
        }
    }
}

// -------------------------------------------------------------------- lint

/// Files that may convert little-endian bytes by hand: the wire module
/// itself, and two that are not streams (fixed-offset page accessors and
/// the PCM sample map).
const FROM_LE_ALLOWED: [&str; 3] = [
    "crates/obs/src/wire.rs",
    "crates/storage/src/page.rs",
    "crates/audio/src/synth.rs",
];

/// The eight stored formats, which encode through `wire::Writer` too.
const FORMAT_FILES: [&str; 8] = [
    "crates/core/src/document.rs",
    "crates/core/src/cpnet/encode.rs",
    "crates/storage/src/catalog.rs",
    "crates/storage/src/wal.rs",
    "crates/imaging/src/image.rs",
    "crates/imaging/src/annotate.rs",
    "crates/codec/src/layered.rs",
    "crates/audio/src/segment.rs",
];

fn rust_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if path.is_dir() {
            if name != "tests" {
                rust_sources(&path, out);
            }
        } else if name.ends_with(".rs") && name != "tests.rs" {
            out.push(path);
        }
    }
}

/// The lines of `text` before its `#[cfg(test)]` test module, skipping
/// comments.
fn code_lines(text: &str) -> Vec<(usize, &str)> {
    let lines: Vec<&str> = text.lines().collect();
    let end = (0..lines.len())
        .find(|&i| {
            lines[i].trim() == "#[cfg(test)]"
                && lines
                    .get(i + 1)
                    .is_some_and(|l| l.trim().starts_with("mod "))
        })
        .unwrap_or(lines.len());
    (0..end)
        .map(|i| (i + 1, lines[i].trim()))
        .filter(|(_, l)| !l.starts_with("//"))
        .collect()
}

#[test]
fn stored_formats_parse_only_through_the_wire_module() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("crate dir").path().join("src");
        if src.is_dir() {
            rust_sources(&src, &mut files);
        }
    }
    assert!(files.len() > 50, "sweep found too few sources: {files:?}");
    files.sort();

    let mut offenders = Vec::new();
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap()
            .to_string_lossy()
            .replace('\\', "/");
        let text = std::fs::read_to_string(file).unwrap_or_else(|e| panic!("read {rel}: {e}"));
        for (lineno, code) in code_lines(&text) {
            let hand_parsed = code.contains("from_le_bytes") && !FROM_LE_ALLOWED.contains(&&*rel);
            let hand_encoded = code.contains("to_le_bytes") && FORMAT_FILES.contains(&&*rel);
            if hand_parsed || hand_encoded {
                offenders.push(format!("{rel}:{lineno}: {code}"));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "byte-order conversions outside rcmo_obs::wire (read and write stored \
         formats through wire::Reader and wire::Writer):\n{}",
        offenders.join("\n")
    );
}
