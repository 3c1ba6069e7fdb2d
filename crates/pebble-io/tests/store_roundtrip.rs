//! Binary schedule store: `read ∘ write = id` on random entries (in memory
//! and through the filesystem), plus rejection of every corruption mode the
//! format is designed to detect — flipped bytes, truncation, bad magic,
//! unknown version/opcode/model and trailing garbage — and a ChaCha8-seeded
//! fuzz of the structural decoder behind the checksum.

use pebble_dag::NodeId;
use pebble_game::moves::{Model, PrbpMove};
use pebble_io::store::{decode, encode, read_file, write_file, StoreEntry, StoreError, MAGIC};
use proptest::prelude::*;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("prbp-store-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn move_strategy() -> impl Strategy<Value = PrbpMove> {
    (0u8..5, any::<u32>(), any::<u32>()).prop_map(|(op, a, b)| match op {
        0 => PrbpMove::Save(NodeId(a)),
        1 => PrbpMove::Load(NodeId(a)),
        2 => PrbpMove::PartialCompute {
            from: NodeId(a),
            to: NodeId(b),
        },
        3 => PrbpMove::Delete(NodeId(a)),
        _ => PrbpMove::Clear(NodeId(a)),
    })
}

fn entry_strategy() -> impl Strategy<Value = StoreEntry> {
    (
        proptest::collection::vec(any::<u64>(), 4usize..5),
        any::<u64>(),
        any::<u64>(),
        proptest::collection::vec(move_strategy(), 0usize..64),
        0usize..4,
    )
        .prop_map(|(key, r, cost, moves, bound_count)| StoreEntry {
            key: [key[0], key[1], key[2], key[3]],
            model: Model::Prbp,
            r,
            nodes: cost / 2,
            edges: cost / 3,
            cost,
            best_bound: cost / 2,
            scheduler: "anytime".into(),
            bounds: (0..bound_count)
                .map(|i| (format!("bound-{i}"), cost.wrapping_add(i as u64)))
                .collect(),
            moves,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn decode_encode_is_identity(entry in entry_strategy()) {
        prop_assert_eq!(decode(&encode(&entry)).unwrap(), entry);
    }

    #[test]
    fn single_byte_corruption_is_always_detected(
        entry in entry_strategy(),
        pos_pick in any::<u64>(),
        bit in 0u8..8,
    ) {
        let bytes = encode(&entry);
        let pos = (pos_pick % bytes.len() as u64) as usize;
        let mut bad = bytes.clone();
        bad[pos] ^= 1 << bit;
        prop_assert!(decode(&bad).is_err(), "flip at {} undetected", pos);
    }
}

#[test]
fn file_roundtrip_and_checksum_rejection() {
    let dir = scratch_dir("file");
    let entry = StoreEntry {
        key: [0xA, 0xB, 0xC, 0xD],
        model: Model::Prbp,
        r: 8,
        nodes: 3,
        edges: 2,
        cost: 4,
        best_bound: 2,
        scheduler: "compose".into(),
        bounds: vec![("load-count".into(), 2)],
        moves: vec![
            PrbpMove::Load(NodeId(0)),
            PrbpMove::PartialCompute {
                from: NodeId(0),
                to: NodeId(2),
            },
            PrbpMove::Save(NodeId(2)),
        ],
    };
    let path = dir.join("entry.sched");
    write_file(&path, &entry).unwrap();
    // The atomic-write temp sibling must not linger.
    assert!(!path.with_extension("tmp").exists());
    assert_eq!(read_file(&path).unwrap(), entry);

    // Corrupt the stored checksum in place: the read must fail closed.
    let mut bytes = std::fs::read(&path).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(&path, &bytes).unwrap();
    match read_file(&path) {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected checksum mismatch, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn structural_rejections() {
    let entry = StoreEntry {
        key: [1, 2, 3, 4],
        model: Model::Prbp,
        r: 4,
        nodes: 2,
        edges: 1,
        cost: 2,
        best_bound: 2,
        scheduler: "exact".into(),
        bounds: vec![],
        moves: vec![PrbpMove::Load(NodeId(1))],
    };
    let good = encode(&entry);

    // Bad magic.
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(decode(&bad), Err(StoreError::BadMagic)));

    // Unsupported version (re-stamp the checksum so only the version is bad).
    let mut bad = good.clone();
    bad[MAGIC.len()] = 99;
    restamp(&mut bad);
    assert!(matches!(
        decode(&bad),
        Err(StoreError::UnsupportedVersion(99))
    ));

    // Unknown model byte sits right after magic + version + key.
    let model_off = MAGIC.len() + 4 + 32;
    let mut bad = good.clone();
    bad[model_off] = 7;
    restamp(&mut bad);
    assert!(matches!(decode(&bad), Err(StoreError::BadModel(7))));

    // Unknown opcode: the single move's opcode is 9 bytes from the end
    // (checksum u64 + node u32 precede it... compute from layout instead).
    let opcode_off = good.len() - 8 - 4 - 1;
    let mut bad = good.clone();
    bad[opcode_off] = 200;
    restamp(&mut bad);
    assert!(matches!(decode(&bad), Err(StoreError::BadOpcode(200))));

    // Trailing garbage after a valid body.
    let mut bad = good[..good.len() - 8].to_vec();
    bad.push(0);
    restamp_append(&mut bad);
    assert!(matches!(decode(&bad), Err(StoreError::TrailingBytes)));

    // Truncation below the minimum header.
    assert!(matches!(decode(&good[..4]), Err(StoreError::Truncated)));
}

/// Mutation rounds of the decoder fuzz. Debug builds stay quick; release
/// runs turn the screws.
const FUZZ_ROUNDS: usize = if cfg!(debug_assertions) {
    20_000
} else {
    200_000
};

/// A random entry drawn from `rng`: every opcode, a few bounds, short
/// strings.
fn random_entry(rng: &mut ChaCha8Rng) -> StoreEntry {
    let moves = (0..rng.gen_range(0usize..12))
        .map(|_| {
            let (a, b) = (
                NodeId(rng.gen_range(0u32..64)),
                NodeId(rng.gen_range(0u32..64)),
            );
            match rng.gen_range(0u8..5) {
                0 => PrbpMove::Save(a),
                1 => PrbpMove::Load(a),
                2 => PrbpMove::PartialCompute { from: a, to: b },
                3 => PrbpMove::Delete(a),
                _ => PrbpMove::Clear(a),
            }
        })
        .collect();
    let cost = rng.gen_range(0u64..1000);
    StoreEntry {
        key: [
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
            rng.next_u64(),
        ],
        model: if rng.gen_bool(0.5) {
            Model::Rbp
        } else {
            Model::Prbp
        },
        r: rng.gen_range(2u64..64),
        nodes: rng.gen_range(0u64..100),
        edges: rng.gen_range(0u64..100),
        cost,
        best_bound: cost / 2,
        scheduler: "compose".into(),
        bounds: (0..rng.gen_range(0usize..3))
            .map(|i| (format!("b{i}"), cost))
            .collect(),
        moves,
    }
}

/// Random corruptions that carry a valid checksum reach the structural
/// decoder: flip, insert, delete and truncate edits to an encoded entry,
/// then a re-stamped checksum. `decode` must never panic, and every entry
/// it accepts must re-encode to exactly the bytes it came from (the
/// encoding is canonical, so nothing malformed decodes "successfully").
#[test]
fn restamped_corruptions_never_panic_and_accepted_bytes_are_canonical() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed_0100);
    for round in 0..FUZZ_ROUNDS {
        let mut bytes = encode(&random_entry(&mut rng));
        for _ in 0..rng.gen_range(1usize..=3) {
            match rng.gen_range(0usize..4) {
                0 => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes[i] ^= 1 << rng.gen_range(0u32..8);
                }
                1 => {
                    let i = rng.gen_range(0..=bytes.len());
                    bytes.insert(i, rng.next_u32() as u8);
                }
                2 => {
                    let i = rng.gen_range(0..bytes.len());
                    bytes.remove(i);
                }
                _ => {
                    let keep = rng.gen_range(0..bytes.len());
                    bytes.truncate(keep);
                }
            }
            if bytes.is_empty() {
                break;
            }
        }
        if bytes.len() >= 8 {
            restamp(&mut bytes);
        }
        if let Ok(entry) = decode(&bytes) {
            assert_eq!(
                encode(&entry),
                bytes,
                "round {round}: accepted bytes are not the canonical encoding"
            );
        }
    }
}

/// Recompute and overwrite the trailing checksum after a deliberate edit.
fn restamp(bytes: &mut [u8]) {
    let body = bytes.len() - 8;
    let sum = fnv1a(&bytes[..body]);
    bytes[body..].copy_from_slice(&sum.to_le_bytes());
}

/// Append a freshly-computed checksum over the current bytes.
fn restamp_append(bytes: &mut Vec<u8>) {
    let sum = fnv1a(bytes);
    bytes.extend_from_slice(&sum.to_le_bytes());
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}
