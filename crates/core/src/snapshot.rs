//! On-disk border-map snapshots.
//!
//! A finished inference ([`BorderMap`]) is the artifact the serving
//! subsystem loads and hot-swaps; this module is its file format's
//! front door: one encoding, BDRM v4, the flat zero-copy layout
//! documented in [`crate::flat`], plus atomic save/load, so a
//! probe+infer cycle can publish a snapshot file that bdrmapd picks up
//! with a `reload` command.
//!
//! Every section carries a CRC32C of its body and the file closes with
//! a footer checksum over those CRCs, so a bit-flipped or truncated
//! file is rejected with a typed error instead of decoding into
//! garbage. Earlier encodings (versions 1–3) are no longer read: their
//! preambles are rejected as [`SnapshotError::BadVersion`], like any
//! other version this reader does not implement.

use crate::flat::{self, V3View};
use crate::output::BorderMap;
use std::path::Path;

/// Errors while reading (or refusing to write) a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Not a border-map snapshot.
    BadMagic,
    /// A version this reader does not implement (anything but
    /// [`flat::VERSION`]).
    BadVersion(u16),
    /// Truncated or internally inconsistent.
    Malformed,
    /// A section body failed its CRC32C — bit rot or a torn write.
    SectionCrc(&'static str),
    /// The whole-file footer checksum failed.
    FooterCrc,
    /// A count in the map exceeds what the format can represent.
    /// Refusing to encode beats writing a silently truncated — but
    /// correctly checksummed — file.
    TooLarge(&'static str),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a border-map snapshot"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported snapshot version {v}"),
            SnapshotError::Malformed => write!(f, "truncated or malformed snapshot"),
            SnapshotError::SectionCrc(s) => write!(f, "snapshot {s} section failed its checksum"),
            SnapshotError::FooterCrc => write!(f, "snapshot footer checksum mismatch"),
            SnapshotError::TooLarge(s) => {
                write!(f, "snapshot {s} count exceeds the format's limit")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Serialize a border map to the canonical v4 flat encoding; see
/// [`crate::flat`].
pub fn encode_v3(map: &BorderMap) -> Result<Vec<u8>, SnapshotError> {
    flat::encode_v3(map)
}

/// Parse a v4 snapshot back into a [`BorderMap`]: integrity and
/// structural validation, then reconstruction. Rejects every other
/// version as [`SnapshotError::BadVersion`].
pub fn decode(data: &[u8]) -> Result<BorderMap, SnapshotError> {
    Ok(V3View::open(data.to_vec(), std::iter::empty())?.to_border_map())
}

/// Write a snapshot to `path`, replacing atomically.
pub fn save(path: &Path, map: &BorderMap) -> std::io::Result<()> {
    let bytes =
        encode_v3(map).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
    bdrmap_types::fsutil::write_atomic(path, &bytes)
}

/// Read a snapshot from `path`.
pub fn load(path: &Path) -> std::io::Result<BorderMap> {
    let data = std::fs::read(path)?;
    decode(&data).map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{Heuristic, InferredLink, InferredRouter};
    use bdrmap_types::{addr, Addr, Asn};

    fn a(s: &str) -> Addr {
        s.parse().unwrap()
    }

    pub(crate) fn sample() -> BorderMap {
        BorderMap {
            routers: vec![
                InferredRouter {
                    addrs: vec![a("10.0.0.1"), a("10.0.0.5")],
                    other_addrs: vec![a("192.0.2.1")],
                    owner: Some(Asn(64500)),
                    heuristic: Some(Heuristic::VpInternal),
                    min_hop: 1,
                },
                InferredRouter {
                    addrs: vec![a("10.0.0.2")],
                    other_addrs: vec![],
                    owner: None,
                    heuristic: None,
                    min_hop: 3,
                },
            ],
            links: vec![
                InferredLink {
                    near: 0,
                    far: Some(1),
                    far_as: Asn(64501),
                    near_addr: Some(a("10.0.0.1")),
                    far_addr: Some(a("10.0.0.2")),
                    heuristic: Heuristic::OneNet,
                },
                InferredLink {
                    near: 0,
                    far: None,
                    far_as: Asn(64502),
                    near_addr: None,
                    far_addr: None,
                    heuristic: Heuristic::SilentNeighbor,
                },
            ],
            packets: 1234,
            elapsed_ms: 5678,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let map = sample();
        let bytes = encode_v3(&map).unwrap();
        let back = decode(&bytes).unwrap();
        assert_eq!(back.packets, map.packets);
        assert_eq!(back.elapsed_ms, map.elapsed_ms);
        assert_eq!(back.routers.len(), 2);
        assert_eq!(back.routers[0].addrs, map.routers[0].addrs);
        assert_eq!(back.routers[0].other_addrs, map.routers[0].other_addrs);
        assert_eq!(back.routers[0].owner, Some(Asn(64500)));
        assert_eq!(back.routers[1].owner, None);
        assert_eq!(back.routers[1].heuristic, None);
        assert_eq!(back.links.len(), 2);
        assert_eq!(back.links[0].far, Some(1));
        assert_eq!(back.links[0].near_addr, map.links[0].near_addr);
        assert_eq!(back.links[1].far, None);
        assert_eq!(back.links[1].heuristic, Heuristic::SilentNeighbor);
        assert_eq!(encode_v3(&back).unwrap(), bytes);
    }

    /// A current file whose version field claims 1, 2 or 3 is refused
    /// by every reader, and a store holding one quarantines it and rolls
    /// back.
    #[test]
    fn v1_and_v2_preambles_are_rejected_and_quarantined() {
        let dir =
            std::env::temp_dir().join(format!("bdrmap-snapshot-oldversion-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = crate::SnapStore::open(&dir).unwrap();
        let good = store.publish(&sample()).unwrap();
        for old in [1u16, 2, 3] {
            let mut bytes = encode_v3(&sample()).unwrap();
            bytes[4..6].copy_from_slice(&old.to_be_bytes());
            assert_eq!(decode(&bytes).err(), Some(SnapshotError::BadVersion(old)));
            assert!(matches!(
                flat::verify_integrity(&bytes),
                Err(SnapshotError::BadVersion(v)) if v == old
            ));
            let gen = good + 1;
            std::fs::write(store.path_of(gen), &bytes).unwrap();
            let out = store.load_verified().unwrap();
            assert_eq!(out.generation, good, "v{old}: must roll back");
            assert_eq!(out.quarantined.len(), 1);
            assert_eq!(out.quarantined[0].generation, gen);
            assert!(
                out.quarantined[0]
                    .reason
                    .contains(&format!("version {old}")),
                "{:?}",
                out.quarantined[0]
            );
            assert!(!store.path_of(gen).exists(), "v{old}: quarantined");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn decode_rejects_corruption() {
        let full = encode_v3(&sample()).unwrap();
        assert!(matches!(decode(b"NOPE"), Err(SnapshotError::BadMagic)));
        // Trailing garbage is rejected (the length no longer matches
        // the header's counts).
        let mut padded = full.clone();
        padded.push(0);
        assert!(decode(&padded).is_err());
        // A link pointing at a nonexistent router is rejected even when
        // the checksums are computed to match.
        let mut bad = sample();
        bad.links[0].near = 99;
        assert!(matches!(
            decode(&encode_v3(&bad).unwrap()),
            Err(SnapshotError::Malformed)
        ));
        // An unknown future version is rejected.
        let mut future = full.clone();
        future[4] = 0;
        future[5] = 99;
        assert!(matches!(
            decode(&future),
            Err(SnapshotError::BadVersion(99))
        ));
    }

    /// Truncation at *every* byte offset must yield an error, never a
    /// panic or a silently short map.
    #[test]
    fn truncated_at_every_byte_offset_is_rejected() {
        let full = encode_v3(&sample()).unwrap();
        for cut in 0..full.len() {
            assert!(decode(&full[..cut]).is_err(), "cut at {cut} decoded");
        }
    }

    /// Every single-bit flip anywhere in the file is caught by a
    /// checksum (or an earlier structural check).
    #[test]
    fn any_bit_flip_is_rejected() {
        let full = encode_v3(&sample()).unwrap();
        for byte in 0..full.len() {
            for bit in 0..8 {
                let mut flipped = full.clone();
                flipped[byte] ^= 1 << bit;
                assert!(
                    decode(&flipped).is_err(),
                    "flip at {byte}:{bit} decoded successfully"
                );
            }
        }
    }

    /// Flips in a section body are reported as checksum failures, not
    /// generic malformation, when the structure still parses: a body
    /// flip fails its section's CRC, and a flip in a stored CRC fails
    /// the footer that seals them.
    #[test]
    fn crc_failures_are_typed() {
        let full = encode_v3(&sample()).unwrap();
        let lay = flat::verify_integrity(&full).unwrap();
        // The header's own CRC is checked first: a flip in the packets
        // field lands there.
        let mut flipped = full.clone();
        flipped[7] ^= 1;
        assert_eq!(
            decode(&flipped).err(),
            Some(SnapshotError::SectionCrc("header"))
        );
        // A flip in the router table fails that section's CRC...
        let mut flipped = full.clone();
        flipped[lay.routers] ^= 1;
        assert_eq!(
            decode(&flipped).err(),
            Some(SnapshotError::SectionCrc("routers"))
        );
        // ...and once re-sealed, it is a valid file again (the min_hop
        // field is free-form).
        let mut hop = full.clone();
        hop[lay.routers + 6] ^= 1;
        flat::seal(&mut hop, &lay);
        assert_eq!(decode(&hop).unwrap().routers[0].min_hop, 0);
        // A flip in the routers' stored CRC fails the footer.
        let routers_crc = lay.routers + lay.n_routers * 20;
        let mut flipped = full.clone();
        flipped[routers_crc] ^= 1;
        assert_eq!(decode(&flipped).err(), Some(SnapshotError::FooterCrc));
        // So does a flip in the footer itself.
        let mut flipped = full.clone();
        *flipped.last_mut().unwrap() ^= 1;
        assert_eq!(decode(&flipped).err(), Some(SnapshotError::FooterCrc));
    }

    #[test]
    fn save_load_round_trips() {
        let dir = std::env::temp_dir().join("bdrmap-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.bdrm");
        let map = sample();
        save(&path, &map).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(encode_v3(&back).unwrap(), encode_v3(&map).unwrap());
        std::fs::remove_file(&path).ok();
    }

    /// Regression: the retired v1/v2 router record stored interface
    /// counts as `u16`, so a 70k-interface router was silently
    /// truncated to `70000 % 65536` addresses — and the CRCs vouched for
    /// the wrong file. The flat layout's u32 counts encode and
    /// round-trip the full set.
    #[test]
    fn oversized_router_round_trips_through_v3() {
        let n = 70_000u32;
        let map = BorderMap {
            routers: vec![InferredRouter {
                addrs: (0..n).map(|i| addr(0x0a00_0000 + i)).collect(),
                other_addrs: vec![],
                owner: Some(Asn(64500)),
                heuristic: None,
                min_hop: 1,
            }],
            links: vec![],
            packets: 0,
            elapsed_ms: 0,
        };
        let v3 = encode_v3(&map).unwrap();
        let back = decode(&v3).unwrap();
        assert_eq!(back.routers[0].addrs.len(), n as usize);
        assert_eq!(back.routers[0].addrs, map.routers[0].addrs);

        // `other_addrs` had its own u16 count with the same failure mode.
        let mut other = sample();
        other.routers[0].other_addrs = (0..n).map(|i| addr(0xc000_0000 + i)).collect();
        let back = decode(&encode_v3(&other).unwrap()).unwrap();
        assert_eq!(back.routers[0].other_addrs, other.routers[0].other_addrs);
    }
}
