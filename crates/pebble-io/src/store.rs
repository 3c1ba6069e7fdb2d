//! Compact binary store format for certified schedules — the on-disk half
//! of the content-addressed schedule cache.
//!
//! A [`StoreEntry`] bundles everything a serving layer needs to answer a
//! scheduling request from disk: the canonical DAG key it was certified
//! for, the game parameters, the move sequence (in *canonical* node
//! numbering — see `pebble_dag::canon`), the certified cost, and the full
//! admissible bound ladder. The format is versioned and checksummed so a
//! torn write or bit rot is detected at read time, never served.
//!
//! ## Format v1 (all integers little-endian)
//!
//! ```text
//! magic      8 bytes   "PRBPSCH\x01"
//! version    u32       1
//! key        4 × u64   canonical DAG fingerprint
//! model      u8        1 = PRBP (the only model stored by v1)
//! r          u64       fast-memory size
//! nodes      u64       node count of the certified DAG
//! edges      u64       edge count of the certified DAG
//! cost       u64       certified I/O cost
//! best_bound u64       best admissible lower bound
//! scheduler  u32 len + utf8 bytes
//! bounds     u32 count, then per bound: u32 len + utf8 name, u64 value
//! moves      u64 count, then per move:
//!              opcode u8: 0 save, 1 load, 2 partial-compute, 3 delete,
//!                         4 clear
//!              node   u32 (opcode 2: from u32 + to u32)
//! checksum   u64       FNV-1a-64 over every preceding byte
//! ```
//!
//! Writers go through [`write_file`], which writes to a temporary sibling
//! and renames into place, so concurrent readers only ever observe complete
//! entries. It does not `fsync`: an entry is a cache of a result that can
//! be recomputed, so a crash may lose recent entries. The file system may
//! then leave one empty or truncated, which fails its checksum and reads
//! back as an error (a cache miss), never as a schedule.

use pebble_dag::NodeId;
use pebble_game::moves::{Model, PrbpMove};
use std::fmt;
use std::fs;
use std::path::Path;

/// Leading magic of every store entry (includes a format-generation byte).
pub const MAGIC: [u8; 8] = *b"PRBPSCH\x01";
/// Current format version.
pub const VERSION: u32 = 1;

/// A certified schedule as stored on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreEntry {
    /// Canonical fingerprint of the DAG this schedule was certified for.
    pub key: [u64; 4],
    /// Pebble game model (v1 stores PRBP only).
    pub model: Model,
    /// Fast-memory size `r`.
    pub r: u64,
    /// Node count of the certified DAG.
    pub nodes: u64,
    /// Edge count of the certified DAG.
    pub edges: u64,
    /// Certified I/O cost of the move sequence.
    pub cost: u64,
    /// Best admissible lower bound at certification time.
    pub best_bound: u64,
    /// Name of the scheduler that produced the moves.
    pub scheduler: String,
    /// The full bound ladder: `(name, value)` pairs.
    pub bounds: Vec<(String, u64)>,
    /// The move sequence, in canonical node numbering.
    pub moves: Vec<PrbpMove>,
}

/// Everything that can go wrong reading a store entry.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The entry does not start with [`MAGIC`].
    BadMagic,
    /// The entry's version is not [`VERSION`].
    UnsupportedVersion(u32),
    /// The entry ends before its structure does.
    Truncated,
    /// The stored checksum does not match the bytes.
    ChecksumMismatch {
        /// Checksum recorded in the entry.
        stored: u64,
        /// Checksum of the bytes actually read.
        computed: u64,
    },
    /// Unknown move opcode.
    BadOpcode(u8),
    /// Unknown model byte.
    BadModel(u8),
    /// A stored string is not valid UTF-8.
    BadUtf8,
    /// Bytes remain after the checksum.
    TrailingBytes,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::BadMagic => write!(f, "not a PRBP schedule store entry (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated => write!(f, "store entry is truncated"),
            StoreError::ChecksumMismatch { stored, computed } => write!(
                f,
                "checksum mismatch (stored {stored:#018x}, computed {computed:#018x})"
            ),
            StoreError::BadOpcode(op) => write!(f, "unknown move opcode {op}"),
            StoreError::BadModel(m) => write!(f, "unknown model byte {m}"),
            StoreError::BadUtf8 => write!(f, "stored string is not valid UTF-8"),
            StoreError::TrailingBytes => write!(f, "trailing bytes after checksum"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes` — dependency-free and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn model_byte(model: Model) -> u8 {
    match model {
        Model::Rbp => 0,
        Model::Prbp => 1,
    }
}

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_str(out: &mut Vec<u8>, s: &str) {
    push_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Serialize an entry to its byte representation (checksum included).
pub fn encode(entry: &StoreEntry) -> Vec<u8> {
    let mut out = Vec::with_capacity(128 + 9 * entry.moves.len());
    out.extend_from_slice(&MAGIC);
    push_u32(&mut out, VERSION);
    for w in entry.key {
        push_u64(&mut out, w);
    }
    out.push(model_byte(entry.model));
    push_u64(&mut out, entry.r);
    push_u64(&mut out, entry.nodes);
    push_u64(&mut out, entry.edges);
    push_u64(&mut out, entry.cost);
    push_u64(&mut out, entry.best_bound);
    push_str(&mut out, &entry.scheduler);
    push_u32(&mut out, entry.bounds.len() as u32);
    for (name, value) in &entry.bounds {
        push_str(&mut out, name);
        push_u64(&mut out, *value);
    }
    push_u64(&mut out, entry.moves.len() as u64);
    for mv in &entry.moves {
        match *mv {
            PrbpMove::Save(v) => {
                out.push(0);
                push_u32(&mut out, v.0);
            }
            PrbpMove::Load(v) => {
                out.push(1);
                push_u32(&mut out, v.0);
            }
            PrbpMove::PartialCompute { from, to } => {
                out.push(2);
                push_u32(&mut out, from.0);
                push_u32(&mut out, to.0);
            }
            PrbpMove::Delete(v) => {
                out.push(3);
                push_u32(&mut out, v.0);
            }
            PrbpMove::Clear(v) => {
                out.push(4);
                push_u32(&mut out, v.0);
            }
        }
    }
    let checksum = fnv1a(&out);
    push_u64(&mut out, checksum);
    out
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.pos + n > self.bytes.len() {
            return Err(StoreError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn string(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| StoreError::BadUtf8)
    }
}

/// Deserialize an entry, verifying magic, version and checksum.
pub fn decode(bytes: &[u8]) -> Result<StoreEntry, StoreError> {
    if bytes.len() < MAGIC.len() + 12 {
        return Err(StoreError::Truncated);
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    // Checksum covers everything but the trailing checksum itself; verify it
    // first so every later decode error means "malformed writer", not rot.
    let body_len = bytes.len() - 8;
    let stored = u64::from_le_bytes(bytes[body_len..].try_into().unwrap());
    let computed = fnv1a(&bytes[..body_len]);
    if stored != computed {
        return Err(StoreError::ChecksumMismatch { stored, computed });
    }
    let mut c = Cursor {
        bytes: &bytes[..body_len],
        pos: MAGIC.len(),
    };
    let version = c.u32()?;
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let mut key = [0u64; 4];
    for w in key.iter_mut() {
        *w = c.u64()?;
    }
    let model = match c.u8()? {
        0 => Model::Rbp,
        1 => Model::Prbp,
        other => return Err(StoreError::BadModel(other)),
    };
    let r = c.u64()?;
    let nodes = c.u64()?;
    let edges = c.u64()?;
    let cost = c.u64()?;
    let best_bound = c.u64()?;
    let scheduler = c.string()?;
    let bound_count = c.u32()? as usize;
    let mut bounds = Vec::with_capacity(bound_count.min(1024));
    for _ in 0..bound_count {
        let name = c.string()?;
        let value = c.u64()?;
        bounds.push((name, value));
    }
    let move_count = c.u64()? as usize;
    let mut moves = Vec::with_capacity(move_count.min(1 << 20));
    for _ in 0..move_count {
        let mv = match c.u8()? {
            0 => PrbpMove::Save(NodeId(c.u32()?)),
            1 => PrbpMove::Load(NodeId(c.u32()?)),
            2 => PrbpMove::PartialCompute {
                from: NodeId(c.u32()?),
                to: NodeId(c.u32()?),
            },
            3 => PrbpMove::Delete(NodeId(c.u32()?)),
            4 => PrbpMove::Clear(NodeId(c.u32()?)),
            other => return Err(StoreError::BadOpcode(other)),
        };
        moves.push(mv);
    }
    if c.pos != body_len {
        return Err(StoreError::TrailingBytes);
    }
    Ok(StoreEntry {
        key,
        model,
        r,
        nodes,
        edges,
        cost,
        best_bound,
        scheduler,
        bounds,
        moves,
    })
}

/// Write an entry atomically: serialize to `<path>.tmp` and rename into
/// place, so a concurrent reader never sees a torn entry. Not durable: see
/// the module docs for what a crash leaves.
pub fn write_file(path: &Path, entry: &StoreEntry) -> Result<(), StoreError> {
    let tmp = path.with_extension("tmp");
    fs::write(&tmp, encode(entry))?;
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Read and verify an entry from disk.
pub fn read_file(path: &Path) -> Result<StoreEntry, StoreError> {
    decode(&fs::read(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StoreEntry {
        StoreEntry {
            key: [1, 2, 3, u64::MAX],
            model: Model::Prbp,
            r: 16,
            nodes: 5,
            edges: 6,
            cost: 7,
            best_bound: 4,
            scheduler: "compose".into(),
            bounds: vec![("load-count".into(), 3), ("s-dominator".into(), 4)],
            moves: vec![
                PrbpMove::Load(NodeId(0)),
                PrbpMove::PartialCompute {
                    from: NodeId(0),
                    to: NodeId(1),
                },
                PrbpMove::Save(NodeId(1)),
                PrbpMove::Delete(NodeId(0)),
                PrbpMove::Clear(NodeId(2)),
            ],
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let entry = sample();
        assert_eq!(decode(&encode(&entry)).unwrap(), entry);
    }

    #[test]
    fn every_corrupted_byte_is_rejected() {
        let bytes = encode(&sample());
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(decode(&bad).is_err(), "flip at byte {i} was not detected");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode(&sample());
        for len in 0..bytes.len() {
            assert!(decode(&bytes[..len]).is_err(), "truncation at {len}");
        }
    }
}
