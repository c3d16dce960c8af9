//! The versioned, byte-deterministic atlas snapshot encoding.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic            8 bytes  b"CMSNAP01"
//! format_version   u32      FORMAT_VERSION of the writer
//! summary_version  u32      cm-bench AtlasSummary schema version
//! golden_digest    u64      AtlasSummary::digest() of the source run
//! payload_len      u64      byte length of the payload that follows
//! file_digest      u64      stablehash chain over header + payload
//! payload          …        interface / prefix / segment tables
//! ```
//!
//! The payload is three length-prefixed tables, each sorted by the
//! writer, so encoding the same atlas twice yields identical bytes. The
//! `file_digest` covers every byte of the file except its own eight, and
//! the loader re-derives it before parsing any table — a flipped bit
//! anywhere in the file surfaces as a typed [`SnapshotError`], never as
//! a panic or a silently wrong record.

use cm_net::{stablehash, Asn, Ipv4, Prefix};
use std::fmt;

/// Version of the snapshot *encoding*. Bump on any layout change so old
/// readers reject new files loudly instead of misparsing them.
pub const FORMAT_VERSION: u32 = 1;

/// The 8-byte file magic.
pub const MAGIC: [u8; 8] = *b"CMSNAP01";

/// Why a snapshot could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedFormat(u32),
    /// The buffer ended before the declared content did.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Bytes remain after the declared payload — the file was appended
    /// to or the header length field was tampered with.
    TrailingBytes(usize),
    /// The recomputed payload digest does not match the header's.
    DigestMismatch {
        /// Digest stored in the header.
        stored: u64,
        /// Digest recomputed from the payload bytes.
        computed: u64,
    },
    /// A record field held an impossible value (e.g. a prefix length
    /// above 32).
    Malformed(&'static str),
    /// The snapshot file could not be read from disk.
    Io(String),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not an atlas snapshot (bad magic)"),
            SnapshotError::UnsupportedFormat(v) => {
                write!(
                    f,
                    "unsupported snapshot format {v} (reader: {FORMAT_VERSION})"
                )
            }
            SnapshotError::Truncated { need, have } => {
                write!(f, "truncated snapshot: need {need} bytes, have {have}")
            }
            SnapshotError::TrailingBytes(n) => {
                write!(f, "{n} trailing byte(s) after the declared payload")
            }
            SnapshotError::DigestMismatch { stored, computed } => write!(
                f,
                "payload digest mismatch: header {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::Malformed(what) => write!(f, "malformed record: {what}"),
            SnapshotError::Io(err) => write!(f, "cannot read snapshot: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The serving record of one border interface, as stored in a snapshot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IfaceRecord {
    /// The interface address.
    pub addr: Ipv4,
    /// `true` for a CBI (the peer's side), `false` for an ABI.
    pub is_cbi: bool,
    /// Owning ASN ([`Asn::RESERVED`] when unknown).
    pub owner: Asn,
    /// Metro-level pin, if any: `(metro id, pin-source index)`.
    pub metro_pin: Option<(u16, u8)>,
    /// Regional fallback pin, if any (region id).
    pub region_pin: Option<u32>,
    /// Peering-group bitmask (bit *i* ⇔ group *i* in Table 5 order).
    pub groups: u8,
    /// Whether the interface was classified as a VPI port.
    pub vpi: bool,
}

/// A decoded (or to-be-encoded) atlas snapshot.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AtlasSnapshot {
    /// `AtlasSummary` schema version of the source run.
    pub summary_version: u32,
    /// `AtlasSummary::digest()` of the source run — pins the snapshot to
    /// one specific golden atlas.
    pub golden_digest: u64,
    /// All border interfaces, ascending by address.
    pub interfaces: Vec<IfaceRecord>,
    /// Announced prefixes with origin ASNs, in trie (prefix) order.
    pub prefixes: Vec<(Prefix, Asn)>,
    /// ICG edges as `(abi, cbi)` pairs, ascending.
    pub segments: Vec<(Ipv4, Ipv4)>,
}

/// Bytes before the digest field: magic + format + summary + golden +
/// payload_len.
const DIGEST_OFFSET: usize = 8 + 4 + 4 + 8 + 8;
const HEADER_LEN: usize = DIGEST_OFFSET + 8;
/// Flag bits of an encoded interface record.
const F_CBI: u8 = 1 << 0;
const F_VPI: u8 = 1 << 1;
const F_METRO: u8 = 1 << 2;
const F_REGION: u8 = 1 << 3;
const IFACE_BYTES: usize = 4 + 4 + 1 + 1 + 1 + 2 + 4;
const PREFIX_BYTES: usize = 4 + 1 + 4;
const SEGMENT_BYTES: usize = 4 + 4;

/// Stable digest over an ordered sequence of byte strings: the same
/// splitmix chain the metrics digest uses, folded 8 bytes at a time,
/// with each part's length mixed in so part boundaries matter.
pub fn file_digest(parts: &[&[u8]]) -> u64 {
    let mut h = 0x0C11_05EA_u64;
    for bytes in parts {
        h = stablehash::mix(h, &[bytes.len() as u64]);
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let mut w = [0u8; 8];
            w.copy_from_slice(c);
            h = stablehash::mix(h, &[u64::from_le_bytes(w)]);
        }
        let rem = chunks.remainder();
        if !rem.is_empty() {
            let mut w = [0u8; 8];
            // cm-lint: allow(S2_UNCHECKED_INDEX, chunks_exact(8) leaves a remainder of at most 7 bytes and w is 8)
            w[..rem.len()].copy_from_slice(rem);
            h = stablehash::mix(h, &[u64::from_le_bytes(w), rem.len() as u64]);
        }
    }
    h
}

impl AtlasSnapshot {
    /// Encodes the snapshot into its canonical byte form.
    ///
    /// Equal snapshots encode to identical bytes: the writer emits the
    /// tables exactly as stored (builders keep them sorted) and the
    /// format has no padding, timestamps or pointers.
    pub fn encode(&self) -> Vec<u8> {
        let mut payload = Vec::with_capacity(
            12 + self.interfaces.len() * IFACE_BYTES
                + self.prefixes.len() * PREFIX_BYTES
                + self.segments.len() * SEGMENT_BYTES,
        );
        payload.extend_from_slice(&(self.interfaces.len() as u32).to_le_bytes());
        for r in &self.interfaces {
            let mut flags = 0u8;
            if r.is_cbi {
                flags |= F_CBI;
            }
            if r.vpi {
                flags |= F_VPI;
            }
            if r.metro_pin.is_some() {
                flags |= F_METRO;
            }
            if r.region_pin.is_some() {
                flags |= F_REGION;
            }
            let (metro, source) = r.metro_pin.unwrap_or((0, 0));
            payload.extend_from_slice(&r.addr.to_u32().to_le_bytes());
            payload.extend_from_slice(&r.owner.0.to_le_bytes());
            payload.push(flags);
            payload.push(r.groups);
            payload.push(source);
            payload.extend_from_slice(&metro.to_le_bytes());
            payload.extend_from_slice(&r.region_pin.unwrap_or(0).to_le_bytes());
        }
        payload.extend_from_slice(&(self.prefixes.len() as u32).to_le_bytes());
        for &(p, asn) in &self.prefixes {
            payload.extend_from_slice(&p.base().to_u32().to_le_bytes());
            payload.push(p.len());
            payload.extend_from_slice(&asn.0.to_le_bytes());
        }
        payload.extend_from_slice(&(self.segments.len() as u32).to_le_bytes());
        for &(abi, cbi) in &self.segments {
            payload.extend_from_slice(&abi.to_u32().to_le_bytes());
            payload.extend_from_slice(&cbi.to_u32().to_le_bytes());
        }

        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&self.summary_version.to_le_bytes());
        out.extend_from_slice(&self.golden_digest.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let digest = file_digest(&[&out[..DIGEST_OFFSET], &payload]);
        out.extend_from_slice(&digest.to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes and validates a snapshot.
    ///
    /// Every read is bounds-checked and the payload digest is re-derived
    /// before any table is parsed, so corruption anywhere in the buffer
    /// yields a typed error rather than a panic or a wrong record.
    pub fn decode(bytes: &[u8]) -> Result<AtlasSnapshot, SnapshotError> {
        let Some((header, payload)) = bytes.split_at_checked(HEADER_LEN) else {
            return Err(SnapshotError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        };
        if bytes.get(..8) != Some(MAGIC.as_slice()) {
            return Err(SnapshotError::BadMagic);
        }
        let mut c = Cursor {
            bytes: header,
            pos: 8,
        };
        let format = c.u32()?;
        if format != FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedFormat(format));
        }
        let summary_version = c.u32()?;
        let golden_digest = c.u64()?;
        let payload_len = c.u64()? as usize;
        let stored = c.u64()?;
        let have = payload.len();
        if have < payload_len {
            return Err(SnapshotError::Truncated {
                need: HEADER_LEN + payload_len,
                have: bytes.len(),
            });
        }
        if have > payload_len {
            return Err(SnapshotError::TrailingBytes(have - payload_len));
        }
        // cm-lint: allow(S2_UNCHECKED_INDEX, split_at_checked pinned header to exactly HEADER_LEN bytes and DIGEST_OFFSET < HEADER_LEN)
        let computed = file_digest(&[&header[..DIGEST_OFFSET], payload]);
        if computed != stored {
            return Err(SnapshotError::DigestMismatch { stored, computed });
        }

        let mut c = Cursor {
            bytes: payload,
            pos: 0,
        };
        let n_ifaces = c.len_prefix(IFACE_BYTES)?;
        let mut interfaces = Vec::with_capacity(n_ifaces);
        for _ in 0..n_ifaces {
            let addr = Ipv4(c.u32()?);
            let owner = Asn(c.u32()?);
            let flags = c.u8()?;
            let groups = c.u8()?;
            let source = c.u8()?;
            let metro = c.u16()?;
            let region = c.u32()?;
            interfaces.push(IfaceRecord {
                addr,
                is_cbi: flags & F_CBI != 0,
                owner,
                metro_pin: (flags & F_METRO != 0).then_some((metro, source)),
                region_pin: (flags & F_REGION != 0).then_some(region),
                groups,
                vpi: flags & F_VPI != 0,
            });
        }
        let n_prefixes = c.len_prefix(PREFIX_BYTES)?;
        let mut prefixes = Vec::with_capacity(n_prefixes);
        for _ in 0..n_prefixes {
            let base = Ipv4(c.u32()?);
            let len = c.u8()?;
            if len > 32 {
                return Err(SnapshotError::Malformed("prefix length above 32"));
            }
            let asn = Asn(c.u32()?);
            prefixes.push((Prefix::new(base, len), asn));
        }
        let n_segments = c.len_prefix(SEGMENT_BYTES)?;
        let mut segments = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let abi = Ipv4(c.u32()?);
            let cbi = Ipv4(c.u32()?);
            segments.push((abi, cbi));
        }
        if c.pos != payload.len() {
            return Err(SnapshotError::TrailingBytes(payload.len() - c.pos));
        }
        Ok(AtlasSnapshot {
            summary_version,
            golden_digest,
            interfaces,
            prefixes,
            segments,
        })
    }

    /// Reads and decodes a snapshot file, mapping I/O failures into the
    /// same typed error space as decode failures — the serving layer
    /// never panics on a missing or corrupt snapshot.
    pub fn load(path: impl AsRef<std::path::Path>) -> Result<AtlasSnapshot, SnapshotError> {
        let bytes = std::fs::read(path.as_ref()).map_err(|e| SnapshotError::Io(e.to_string()))?;
        AtlasSnapshot::decode(&bytes)
    }
}

/// A bounds-checked little-endian reader.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], SnapshotError> {
        let end = self.pos.checked_add(n).ok_or(SnapshotError::Truncated {
            need: usize::MAX,
            have: self.bytes.len(),
        })?;
        let s = self
            .bytes
            .get(self.pos..end)
            .ok_or(SnapshotError::Truncated {
                need: end,
                have: self.bytes.len(),
            })?;
        self.pos = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, SnapshotError> {
        let mut w = [0u8; 2];
        w.copy_from_slice(self.take(2)?);
        Ok(u16::from_le_bytes(w))
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let mut w = [0u8; 4];
        w.copy_from_slice(self.take(4)?);
        Ok(u32::from_le_bytes(w))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut w = [0u8; 8];
        w.copy_from_slice(self.take(8)?);
        Ok(u64::from_le_bytes(w))
    }

    /// Reads a u32 element count and pre-validates that `count × width`
    /// bytes remain, so a forged count cannot drive a huge allocation.
    fn len_prefix(&mut self, width: usize) -> Result<usize, SnapshotError> {
        let n = self.u32()? as usize;
        let need = n.checked_mul(width).ok_or(SnapshotError::Truncated {
            need: usize::MAX,
            have: self.bytes.len(),
        })?;
        if self.bytes.len() - self.pos < need {
            return Err(SnapshotError::Truncated {
                need: self.pos + need,
                have: self.bytes.len(),
            });
        }
        Ok(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> AtlasSnapshot {
        AtlasSnapshot {
            summary_version: 2,
            golden_digest: 0xDEAD_BEEF_CAFE_F00D,
            interfaces: vec![
                IfaceRecord {
                    addr: Ipv4::new(10, 0, 0, 1),
                    is_cbi: false,
                    owner: Asn(64500),
                    metro_pin: Some((7, 3)),
                    region_pin: None,
                    groups: 0,
                    vpi: false,
                },
                IfaceRecord {
                    addr: Ipv4::new(10, 0, 0, 2),
                    is_cbi: true,
                    owner: Asn(64501),
                    metro_pin: None,
                    region_pin: Some(4),
                    groups: 0b10_0001,
                    vpi: true,
                },
            ],
            prefixes: vec![
                ("10.0.0.0/8".parse().unwrap(), Asn(64500)),
                ("10.1.0.0/16".parse().unwrap(), Asn(64501)),
            ],
            segments: vec![(Ipv4::new(10, 0, 0, 1), Ipv4::new(10, 0, 0, 2))],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let snap = sample();
        let bytes = snap.encode();
        let back = AtlasSnapshot::decode(&bytes).expect("decodes");
        assert_eq!(back, snap);
        // Byte determinism: same snapshot, same bytes.
        assert_eq!(bytes, snap.encode());
    }

    #[test]
    fn every_single_byte_flip_is_rejected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            assert!(
                AtlasSnapshot::decode(&bad).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_rejected() {
        let bytes = sample().encode();
        for cut in [0, 7, HEADER_LEN - 1, HEADER_LEN, bytes.len() - 1] {
            assert!(matches!(
                AtlasSnapshot::decode(&bytes[..cut]),
                Err(SnapshotError::Truncated { .. })
            ));
        }
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(matches!(
            AtlasSnapshot::decode(&extended),
            Err(SnapshotError::TrailingBytes(1))
        ));
    }

    #[test]
    fn wrong_magic_and_format_are_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert_eq!(AtlasSnapshot::decode(&bytes), Err(SnapshotError::BadMagic));
        let mut bytes = sample().encode();
        bytes[8] = 99;
        // Format bump: rejected as unsupported, not misparsed.
        assert!(matches!(
            AtlasSnapshot::decode(&bytes),
            Err(SnapshotError::UnsupportedFormat(_))
        ));
    }

    /// Hostile-input sweep: EVERY prefix of a valid snapshot must come
    /// back as a typed error — never a panic, never an `Ok`. This is
    /// the exhaustive companion to the spot checks above (the sample
    /// file is a few hundred bytes, so the O(n²) digest work is trivial).
    #[test]
    fn every_prefix_truncation_yields_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            match AtlasSnapshot::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {cut} bytes decoded successfully"),
            }
        }
    }

    /// Memory-DoS regression: a forged element count must be rejected by
    /// the `len_prefix` pre-validation (count × width vs remaining
    /// bytes), not answered with a multi-gigabyte `Vec::with_capacity`.
    /// The tampered file is re-signed so the attack reaches the table
    /// parser instead of dying at the digest check.
    #[test]
    fn forged_table_count_is_rejected_before_allocation() {
        for forged in [u32::MAX, 1 << 24] {
            let mut bytes = sample().encode();
            // First table's count lives at the start of the payload.
            bytes[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&forged.to_le_bytes());
            let digest = file_digest(&[&bytes[..DIGEST_OFFSET], &bytes[HEADER_LEN..]]);
            bytes[DIGEST_OFFSET..HEADER_LEN].copy_from_slice(&digest.to_le_bytes());
            assert!(
                matches!(
                    AtlasSnapshot::decode(&bytes),
                    Err(SnapshotError::Truncated { .. })
                ),
                "forged count {forged} must be a Truncated error"
            );
        }
    }

    #[test]
    fn load_reads_a_snapshot_file_and_maps_io_errors() {
        let missing = std::path::Path::new("/nonexistent/cm-snapshot.bin");
        assert!(matches!(
            AtlasSnapshot::load(missing),
            Err(SnapshotError::Io(_))
        ));

        let snap = sample();
        let path = std::env::temp_dir().join(format!("cm-snap-test-{}.bin", std::process::id()));
        std::fs::write(&path, snap.encode()).expect("write temp snapshot");
        let back = AtlasSnapshot::load(&path).expect("loads");
        let _ = std::fs::remove_file(&path);
        assert_eq!(back, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = AtlasSnapshot {
            summary_version: 2,
            golden_digest: 1,
            ..AtlasSnapshot::default()
        };
        let back = AtlasSnapshot::decode(&snap.encode()).expect("decodes");
        assert_eq!(back, snap);
    }
}
