//! On-disk trace storage (a warts-like container).
//!
//! scamper writes probing output to *warts* files that bdrmap later
//! consumes offline; decoupling collection from inference is what lets
//! the central system re-run heuristics without re-probing. This module
//! provides the same capability: a versioned, length-prefixed binary
//! container for a [`TraceCollection`], written and parsed with
//! [`bytes`] (no external format crates).
//!
//! Layout:
//!
//! ```text
//! magic "BDRW" | u16 version | u64 packets | u64 elapsed_ms |
//! u32 trace_count | trace*
//! trace := u32 body_len | u32 dst | u32 target_as | u8 stop |
//!          u16 hop_count | hop*
//! hop   := u8 ttl | u8 flags | [u32 addr | u16 ipid]   (if flags&1)
//! ```
//!
//! The reader is strict: it accepts exactly the bytes [`encode`] writes,
//! so every accepted input re-encodes to itself. A stop code above 3,
//! a flag bit other than the three defined, a flag set on a hop without
//! an address, a record body longer than its trace, bytes after the
//! last trace and a version other than 1 are all refused.

use crate::engine::{ProbeBudget, TraceCollection};
use crate::trace::{Trace, TraceHop, TraceStop};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// File magic.
const MAGIC: &[u8; 4] = b"BDRW";
/// Current format version.
const VERSION: u16 = 1;
/// Hop flag: an address (and IPID) follows.
const HAS_ADDR: u8 = 1;
/// Hop flag: the response was ICMP time-exceeded.
const TIME_EXCEEDED: u8 = 2;
/// Hop flag: the response was another ICMP message.
const OTHER_ICMP: u8 = 4;

/// Errors while reading a store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Not a bdrmap trace store.
    BadMagic,
    /// A version this reader does not know.
    BadVersion(u16),
    /// Truncated or internally inconsistent.
    Truncated,
    /// The bytes do not match their checksum.
    BadChecksum,
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a bdrmap trace store"),
            StoreError::BadVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated => write!(f, "truncated trace store"),
            StoreError::BadChecksum => write!(f, "checksum mismatch"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Serialize one trace body (the per-trace record above, without its
/// length prefix). The write-ahead journal reuses this framing so
/// journaled batches and stored collections share one codec.
pub fn encode_trace(body: &mut BytesMut, tr: &Trace) {
    body.put_u32(u32::from(tr.dst));
    body.put_u32(tr.target_as.0);
    body.put_u8(match tr.stop {
        TraceStop::Completed => 0,
        TraceStop::GapLimit => 1,
        TraceStop::StopSet => 2,
        TraceStop::MaxTtl => 3,
    });
    body.put_u16(tr.hops.len() as u16);
    for h in &tr.hops {
        body.put_u8(h.ttl);
        match h.addr {
            Some(a) => {
                let mut flags = HAS_ADDR;
                if h.time_exceeded {
                    flags |= TIME_EXCEEDED;
                }
                if h.other_icmp {
                    flags |= OTHER_ICMP;
                }
                body.put_u8(flags);
                body.put_u32(u32::from(a));
                body.put_u16(h.ipid);
            }
            None => body.put_u8(0),
        }
    }
}

/// Parse one trace body produced by [`encode_trace`], consuming it from
/// `body`.
pub fn decode_trace(body: &mut Bytes) -> Result<Trace, StoreError> {
    if body.remaining() < 4 + 4 + 1 + 2 {
        return Err(StoreError::Truncated);
    }
    let dst = bdrmap_types::addr(body.get_u32());
    let target_as = bdrmap_types::Asn(body.get_u32());
    let stop = match body.get_u8() {
        0 => TraceStop::Completed,
        1 => TraceStop::GapLimit,
        2 => TraceStop::StopSet,
        3 => TraceStop::MaxTtl,
        _ => return Err(StoreError::Truncated),
    };
    let hop_count = body.get_u16() as usize;
    let mut hops = Vec::with_capacity(hop_count.min(1 << 12));
    for _ in 0..hop_count {
        if body.remaining() < 2 {
            return Err(StoreError::Truncated);
        }
        let ttl = body.get_u8();
        let flags = body.get_u8();
        if flags & !(HAS_ADDR | TIME_EXCEEDED | OTHER_ICMP) != 0 {
            return Err(StoreError::Truncated);
        }
        if flags & HAS_ADDR != 0 {
            if body.remaining() < 6 {
                return Err(StoreError::Truncated);
            }
            hops.push(TraceHop {
                ttl,
                addr: Some(bdrmap_types::addr(body.get_u32())),
                time_exceeded: flags & TIME_EXCEEDED != 0,
                other_icmp: flags & OTHER_ICMP != 0,
                ipid: body.get_u16(),
            });
        } else if flags != 0 {
            // A hop without an address carries no response flags.
            return Err(StoreError::Truncated);
        } else {
            hops.push(TraceHop {
                ttl,
                addr: None,
                time_exceeded: false,
                other_icmp: false,
                ipid: 0,
            });
        }
    }
    Ok(Trace {
        dst,
        target_as,
        hops,
        stop,
    })
}

/// [`encode_trace`] into a plain byte vector, for callers (the
/// write-ahead journal) that frame traces with the dependency-free wire
/// helpers instead of `bytes`.
pub fn trace_to_vec(tr: &Trace) -> Vec<u8> {
    let mut body = BytesMut::new();
    encode_trace(&mut body, tr);
    body.to_vec()
}

/// Decode one trace from a slice produced by [`trace_to_vec`]. The
/// whole slice must be consumed — trailing bytes are corruption.
pub fn trace_from_slice(data: &[u8]) -> Result<Trace, StoreError> {
    let mut body = Bytes::copy_from_slice(data);
    let tr = decode_trace(&mut body)?;
    if body.remaining() > 0 {
        return Err(StoreError::Truncated);
    }
    Ok(tr)
}

/// Serialize a trace collection.
pub fn encode(coll: &TraceCollection) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_slice(MAGIC);
    buf.put_u16(VERSION);
    buf.put_u64(coll.budget.packets);
    buf.put_u64(coll.budget.elapsed_ms);
    buf.put_u32(coll.traces.len() as u32);
    for tr in &coll.traces {
        let mut body = BytesMut::new();
        encode_trace(&mut body, tr);
        buf.put_u32(body.len() as u32);
        buf.extend_from_slice(&body);
    }
    buf.freeze()
}

/// Parse a trace collection.
pub fn decode(mut data: Bytes) -> Result<TraceCollection, StoreError> {
    if data.remaining() < 4 + 2 + 8 + 8 + 4 {
        return Err(StoreError::Truncated);
    }
    let mut magic = [0u8; 4];
    data.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = data.get_u16();
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    let packets = data.get_u64();
    let elapsed_ms = data.get_u64();
    let n = data.get_u32() as usize;
    let mut traces = Vec::with_capacity(n.min(1 << 20));
    for _ in 0..n {
        if data.remaining() < 4 {
            return Err(StoreError::Truncated);
        }
        let body_len = data.get_u32() as usize;
        if data.remaining() < body_len {
            return Err(StoreError::Truncated);
        }
        let mut body = data.split_to(body_len);
        traces.push(decode_trace(&mut body)?);
        if body.remaining() > 0 {
            return Err(StoreError::Truncated);
        }
    }
    if data.remaining() > 0 {
        return Err(StoreError::Truncated);
    }
    Ok(TraceCollection {
        traces,
        budget: ProbeBudget {
            packets,
            elapsed_ms,
        },
    })
}

/// Write a collection to a file, atomically and durably.
pub fn save(path: &std::path::Path, coll: &TraceCollection) -> std::io::Result<()> {
    save_with(path, coll, &bdrmap_types::Vfs::real())
}

/// Read a collection from a file.
pub fn load(path: &std::path::Path) -> std::io::Result<TraceCollection> {
    load_with(path, &bdrmap_types::Vfs::real())
}

/// [`save`] through an explicit filesystem seam. Errors carry the path.
pub fn save_with(
    path: &std::path::Path,
    coll: &TraceCollection,
    vfs: &bdrmap_types::Vfs,
) -> std::io::Result<()> {
    vfs.write_atomic(path, &encode(coll))
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// [`load`] through an explicit filesystem seam. Errors carry the path.
pub fn load_with(
    path: &std::path::Path,
    vfs: &bdrmap_types::Vfs,
) -> std::io::Result<TraceCollection> {
    let data = vfs
        .read(path)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
    decode(Bytes::from(data)).map_err(|e| {
        std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("{}: {e}", path.display()),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_types::{addr, Asn};

    fn sample() -> TraceCollection {
        let hops = vec![
            TraceHop {
                ttl: 1,
                addr: Some(addr(0x0a000001)),
                time_exceeded: true,
                other_icmp: false,
                ipid: 77,
            },
            TraceHop {
                ttl: 2,
                addr: None,
                time_exceeded: false,
                other_icmp: false,
                ipid: 0,
            },
            TraceHop {
                ttl: 3,
                addr: Some(addr(0x0a000009)),
                time_exceeded: false,
                other_icmp: true,
                ipid: 65535,
            },
        ];
        TraceCollection {
            traces: vec![
                Trace {
                    dst: addr(0x0a010101),
                    target_as: Asn(7),
                    hops,
                    stop: TraceStop::Completed,
                },
                Trace {
                    dst: addr(0x0a020202),
                    target_as: Asn(9),
                    hops: vec![],
                    stop: TraceStop::GapLimit,
                },
            ],
            budget: ProbeBudget {
                packets: 1234,
                elapsed_ms: 56789,
            },
        }
    }

    #[test]
    fn round_trip() {
        let coll = sample();
        let decoded = decode(encode(&coll)).unwrap();
        assert_eq!(decoded.traces.len(), coll.traces.len());
        assert_eq!(decoded.budget.packets, 1234);
        assert_eq!(decoded.budget.elapsed_ms, 56789);
        for (a, b) in coll.traces.iter().zip(&decoded.traces) {
            assert_eq!(a.dst, b.dst);
            assert_eq!(a.target_as, b.target_as);
            assert_eq!(a.stop, b.stop);
            assert_eq!(a.hops, b.hops);
        }
    }

    #[test]
    fn single_trace_vec_round_trip() {
        for tr in &sample().traces {
            let body = trace_to_vec(tr);
            let back = trace_from_slice(&body).unwrap();
            assert_eq!(&back, tr);
            // Trailing garbage and truncation are both corruption.
            let mut padded = body.clone();
            padded.push(0);
            assert!(trace_from_slice(&padded).is_err());
            assert!(trace_from_slice(&body[..body.len() - 1]).is_err());
        }
    }

    #[test]
    fn rejects_bad_magic() {
        let got = decode(Bytes::from_static(
            b"NOPE\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0\0",
        ));
        assert!(matches!(got, Err(StoreError::BadMagic)));
    }

    #[test]
    fn rejects_future_version() {
        let mut data = BytesMut::from(&encode(&sample())[..]);
        data[4] = 0xff; // bump version high byte
        assert!(matches!(
            decode(data.freeze()),
            Err(StoreError::BadVersion(_))
        ));
    }

    #[test]
    fn rejects_truncation_anywhere() {
        let full = encode(&sample());
        for cut in [3, 10, 20, full.len() - 1] {
            let cut_data = full.slice(..cut);
            assert!(decode(cut_data).is_err(), "cut at {cut} must not decode");
        }
    }

    /// Bytes `encode` never writes are refused, so whatever is accepted
    /// re-encodes to itself.
    #[test]
    fn rejects_bytes_the_encoder_never_writes() {
        let full = encode(&sample()).to_vec();
        let err = |bytes: &[u8]| decode(Bytes::copy_from_slice(bytes)).err();
        assert_eq!(err(&full), None);
        // Header (26 bytes), then trace 0's body length, dst, target AS,
        // stop code, hop count; its hops start at offset 41.
        const STOP: usize = 26 + 4 + 4 + 4;
        const HOP0_FLAGS: usize = STOP + 1 + 2 + 1;
        const HOP1_FLAGS: usize = HOP0_FLAGS + 1 + 6 + 1;
        assert_eq!(full[STOP], 0);
        assert_eq!(full[HOP0_FLAGS], HAS_ADDR | TIME_EXCEEDED);
        assert_eq!(full[HOP1_FLAGS], 0);

        let patched = |i: usize, v: u8| {
            let mut b = full.clone();
            b[i] = v;
            b
        };
        for stop in [4, 0xff] {
            assert_eq!(err(&patched(STOP, stop)), Some(StoreError::Truncated));
        }
        for flags in [8, 0x80, HAS_ADDR | 0x10] {
            assert_eq!(
                err(&patched(HOP0_FLAGS, flags)),
                Some(StoreError::Truncated)
            );
        }
        for flags in [TIME_EXCEEDED, OTHER_ICMP] {
            assert_eq!(
                err(&patched(HOP1_FLAGS, flags)),
                Some(StoreError::Truncated)
            );
        }
        assert_eq!(err(&patched(5, 0)), Some(StoreError::BadVersion(0)));

        // A record body longer than its trace: grow trace 0's length
        // prefix by one and pad the body to match.
        let mut long = full.clone();
        let len = u32::from_be_bytes(long[26..30].try_into().unwrap());
        long[26..30].copy_from_slice(&(len + 1).to_be_bytes());
        long.insert(30 + len as usize, 0);
        assert_eq!(err(&long), Some(StoreError::Truncated));

        let mut trailing = full.clone();
        trailing.push(0);
        assert_eq!(err(&trailing), Some(StoreError::Truncated));
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("bdrmap-store-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("traces.bdrw");
        save(&path, &sample()).unwrap();
        let loaded = load(&path).unwrap();
        assert_eq!(loaded.traces.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
