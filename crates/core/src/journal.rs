//! Write-ahead trace journal: crash-safe persistence for the
//! incremental engine.
//!
//! [`crate::incremental::IncrementalEngine`] holds the cumulative trace
//! set, router fingerprints, and alias-replay cache only in memory, so
//! a crash used to discard everything a `bdrmap watch` run had
//! accumulated and force a full re-sweep. The journal closes that gap
//! with classic WAL discipline: every [`Batch`] is appended — CRC32C
//! framed, fsynced, LSN stamped — *before* the pass applies it, and
//! periodic compaction collapses the journal prefix into a checkpoint
//! keyed to the snapstore generation the checkpointed state produced.
//! On startup, recovery loads the newest checkpoint that verifies and
//! replays the journal tail; because the engine's published bytes are a
//! pure function of the cumulative trace set, the recovered engine's
//! next map is byte-identical to a from-scratch rebuild.
//!
//! On-disk layout (all I/O through the [`Vfs`] seam so the chaos
//! harness can fault it):
//!
//! ```text
//! seg-000001.wal   header "BDRJ" | u16 version | u64 first_lsn
//!                  frame* := u32 len | u32 crc32c(payload) | payload
//!                  payload := u8 rec_type(1) | u64 lsn | u64 seed |
//!                             u32 n_upserts  | (u32 len | trace)* |
//!                             u32 n_retracts | u32 addr*
//! ckpt-<lsn>.bdrk  "BDRK" | u16 version | u64 lsn | u64 generation |
//!                  u64 pass | u32 n | (u64 last_refresh |
//!                  u32 len | trace)* | u32 crc32c(preceding bytes)
//! ```
//!
//! Invariants the format maintains:
//!
//! * **Append-before-apply.** A batch's LSN is acknowledged only after
//!   its frame is durably appended; the engine applies the batch only
//!   after the ack. Recovery therefore never misses an acked batch, and
//!   an unacked batch is replayed either whole or not at all (frames
//!   are atomic under CRC).
//! * **Rotate-on-error.** A failed append seals the segment: the retry
//!   goes to a *fresh* segment, so torn bytes only ever sit at the end
//!   of a segment and the reader may treat the first bad frame of each
//!   segment as a discardable torn tail.
//! * **Idempotent replay.** A fault after the bytes landed but before
//!   the ack (fsync failure) leaves the same LSN in two segments;
//!   recovery keeps the first copy and skips duplicates. Any *gap* in
//!   the LSN sequence, by contrast, means an acked record was lost and
//!   recovery fails hard with the segment path and offset.
//! * **Checkpoints never regress.** A checkpoint is written atomically,
//!   read back, and fully re-verified before compaction prunes
//!   anything; pruning keeps the previous checkpoint too, so a torn
//!   checkpoint write falls back cleanly.

use crate::incremental::Batch;
use bdrmap_obs::Registry;
use bdrmap_probe::store::{trace_from_slice, trace_to_vec};
use bdrmap_probe::Trace;
use bdrmap_types::integrity::crc32c;
use bdrmap_types::wire::{WireReader, WireWriter};
use bdrmap_types::{addr, addr_bits, Vfs};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Segment file magic.
const SEG_MAGIC: &[u8; 4] = b"BDRJ";
/// Checkpoint file magic ("BDRC" is the probe checkpoint store).
const CKPT_MAGIC: &[u8; 4] = b"BDRK";
/// Format version for both file kinds.
const VERSION: u16 = 1;
/// Segment header: magic + version + first LSN.
const SEG_HEADER: usize = 4 + 2 + 8;
/// Frame header: payload length + payload CRC32C.
const FRAME_HEADER: usize = 4 + 4;
/// Hard cap on one frame's payload; larger lengths are treated as torn.
const MAX_PAYLOAD: usize = 1 << 26;
/// Record type: one applied batch.
const REC_BATCH: u8 = 1;

/// Why the journal could not proceed.
#[derive(Debug)]
pub enum JournalError {
    /// Filesystem trouble, with the segment or checkpoint path that
    /// failed — crash-run logs are useless without it.
    Io {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// Bytes that are provably wrong (a CRC-valid frame that does not
    /// parse, an LSN gap, a checksum mismatch at a known offset) rather
    /// than merely torn.
    Corrupt {
        /// The file the corruption was found in.
        path: PathBuf,
        /// Byte offset of the failing frame or field.
        offset: u64,
        /// What exactly failed.
        detail: String,
    },
}

impl JournalError {
    fn io_at(path: impl Into<PathBuf>, source: io::Error) -> JournalError {
        JournalError::Io {
            path: path.into(),
            source,
        }
    }

    fn corrupt(path: impl Into<PathBuf>, offset: u64, detail: impl Into<String>) -> JournalError {
        JournalError::Corrupt {
            path: path.into(),
            offset,
            detail: detail.into(),
        }
    }
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O error at {}: {source}", path.display())
            }
            JournalError::Corrupt {
                path,
                offset,
                detail,
            } => write!(
                f,
                "journal corruption in {} at offset {offset}: {detail}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Journal tunables.
#[derive(Clone, Copy, Debug)]
pub struct JournalConfig {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
}

impl Default for JournalConfig {
    fn default() -> Self {
        JournalConfig {
            segment_bytes: 64 * 1024,
        }
    }
}

/// One journaled batch, as replayed at recovery.
#[derive(Clone, Debug)]
pub struct JournalRecord {
    /// Log sequence number (1-based, contiguous).
    pub lsn: u64,
    /// The batch seed the watch loop recorded (ties the batch to its
    /// probing schedule in reports).
    pub seed: u64,
    /// The batch itself.
    pub batch: Batch,
}

/// A compaction point: everything the engine needs to restart without
/// replaying the journal prefix.
#[derive(Clone, Debug, Default)]
pub struct JournalCheckpoint {
    /// Last LSN folded into this checkpoint.
    pub lsn: u64,
    /// Snapstore generation the checkpointed state had published.
    pub generation: u64,
    /// Engine pass count at the checkpoint.
    pub pass: u64,
    /// Held traces with their last-refresh pass
    /// ([`crate::incremental::IncrementalEngine::checkpoint_entries`]).
    pub entries: Vec<(Trace, u64)>,
}

/// A torn tail discarded during recovery: where it was and why the
/// frame was rejected. Torn tails are expected debris of a crash, not
/// errors — but operators debugging one want the offset.
#[derive(Clone, Debug)]
pub struct TornTail {
    /// Segment holding the torn bytes.
    pub path: PathBuf,
    /// Offset of the first unreadable frame.
    pub offset: u64,
    /// Why the frame was rejected (truncation, CRC mismatch, …).
    pub detail: String,
}

/// What [`Journal::open_with`] found on disk.
#[derive(Debug, Default)]
pub struct Recovered {
    /// Newest checkpoint that verified, if any.
    pub checkpoint: Option<JournalCheckpoint>,
    /// Acked (or durably half-acked) batches past the checkpoint, in
    /// LSN order — replay these through the engine.
    pub tail: Vec<JournalRecord>,
    /// Torn tails discarded along the way.
    pub torn: Vec<TornTail>,
    /// Checkpoint files that failed verification and were skipped.
    pub checkpoints_skipped: usize,
    /// Segments scanned.
    pub segments_scanned: usize,
}

/// The write-ahead journal over a directory of segments + checkpoints.
#[derive(Debug)]
pub struct Journal {
    dir: PathBuf,
    vfs: Vfs,
    registry: Registry,
    cfg: JournalConfig,
    /// Last acknowledged LSN.
    lsn: u64,
    /// Index the next freshly-created segment will use.
    next_seg: u64,
    /// The segment currently accepting appends, if any.
    open_seg: Option<OpenSeg>,
}

#[derive(Debug)]
struct OpenSeg {
    index: u64,
    bytes: u64,
}

fn seg_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("seg-{index:06}.wal"))
}

fn ckpt_path(dir: &Path, lsn: u64) -> PathBuf {
    dir.join(format!("ckpt-{lsn:020}.bdrk"))
}

impl Journal {
    /// Open (creating if needed) the journal at `dir` on the real
    /// filesystem, reporting to the process-wide registry.
    pub fn open(dir: impl Into<PathBuf>) -> Result<(Journal, Recovered), JournalError> {
        Journal::open_with(
            dir,
            Vfs::real(),
            bdrmap_obs::global().clone(),
            JournalConfig::default(),
        )
    }

    /// Open with an explicit filesystem seam, registry, and config.
    /// Scans every segment, verifies every frame, and returns what a
    /// restarting watch loop must replay. Always rotates to a fresh
    /// segment for subsequent appends — never appends after a torn
    /// tail.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        vfs: Vfs,
        registry: Registry,
        cfg: JournalConfig,
    ) -> Result<(Journal, Recovered), JournalError> {
        let t0 = Instant::now();
        let dir = dir.into();
        vfs.create_dir_all(&dir)
            .map_err(|e| JournalError::io_at(&dir, e))?;

        let mut recovered = Recovered::default();

        // Newest checkpoint that verifies wins; bad ones are skipped
        // (a torn compaction falls back to the previous checkpoint).
        for &lsn in list_files(&dir, "ckpt-", ".bdrk")
            .map_err(|e| JournalError::io_at(&dir, e))?
            .iter()
            .rev()
        {
            match read_checkpoint(&vfs, &ckpt_path(&dir, lsn)) {
                Ok(c) => {
                    recovered.checkpoint = Some(c);
                    break;
                }
                Err(_) => recovered.checkpoints_skipped += 1,
            }
        }
        let cut = recovered.checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);

        // Scan segments in creation order, discarding each segment's
        // torn tail and enforcing LSN discipline across them.
        let segments =
            list_files(&dir, "seg-", ".wal").map_err(|e| JournalError::io_at(&dir, e))?;
        let mut max_lsn: Option<u64> = None;
        for &index in &segments {
            let path = seg_path(&dir, index);
            let data = vfs.read(&path).map_err(|e| JournalError::io_at(&path, e))?;
            recovered.segments_scanned += 1;
            for (offset, rec) in scan_segment(&path, &data, &mut recovered.torn)? {
                match max_lsn {
                    // A rewrite of an already-durable LSN (failed-ack
                    // retry); the first copy already counted.
                    Some(m) if rec.lsn <= m => continue,
                    Some(m) if rec.lsn != m + 1 => {
                        return Err(JournalError::corrupt(
                            &path,
                            offset,
                            format!("lsn gap: expected {}, found {}", m + 1, rec.lsn),
                        ));
                    }
                    None if cut > 0 && rec.lsn > cut + 1 => {
                        return Err(JournalError::corrupt(
                            &path,
                            offset,
                            format!(
                                "lsn gap after checkpoint {cut}: first journal record is {}",
                                rec.lsn
                            ),
                        ));
                    }
                    _ => {}
                }
                max_lsn = Some(rec.lsn);
                if rec.lsn > cut {
                    recovered.tail.push(rec);
                }
            }
        }

        let lsn = max_lsn.unwrap_or(0).max(cut);
        let journal = Journal {
            next_seg: segments.last().copied().unwrap_or(0) + 1,
            dir,
            vfs,
            registry,
            cfg,
            lsn,
            open_seg: None,
        };
        journal
            .registry
            .counter("bdrmap_journal_replayed_total", &[])
            .add(recovered.tail.len() as u64);
        journal
            .registry
            .counter("bdrmap_journal_torn_tails_total", &[])
            .add(recovered.torn.len() as u64);
        journal.registry.gauge("bdrmap_journal_lsn", &[]).set(lsn);
        journal
            .registry
            .histogram("bdrmap_journal_recovery_us", &[])
            .record(t0.elapsed().as_micros() as u64);
        Ok((journal, recovered))
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Last acknowledged LSN (0 when nothing was ever appended).
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Segment indices currently on disk, ascending.
    pub fn segments(&self) -> io::Result<Vec<u64>> {
        list_files(&self.dir, "seg-", ".wal")
    }

    /// Checkpoint LSNs currently on disk, ascending.
    pub fn checkpoints(&self) -> io::Result<Vec<u64>> {
        list_files(&self.dir, "ckpt-", ".bdrk")
    }

    /// Durably append one batch *before* applying it. Returns the
    /// batch's LSN on ack. On error the current segment is sealed: the
    /// retry (same state, so same LSN) goes to a fresh segment, keeping
    /// torn bytes strictly at segment tails. The caller must not apply
    /// a batch whose append failed.
    pub fn append(&mut self, seed: u64, batch: &Batch) -> Result<u64, JournalError> {
        let lsn = self.lsn + 1;
        let payload = encode_record(lsn, seed, batch);
        let mut frame = WireWriter::new();
        frame.put_u32(payload.len() as u32);
        frame.put_u32(crc32c(&payload));
        frame.put_slice(&payload);

        let (index, buf) = match &self.open_seg {
            Some(s) if s.bytes < self.cfg.segment_bytes => (s.index, frame.into_vec()),
            _ => {
                // Fresh segment: header and first frame in one append.
                let index = self.next_seg;
                self.next_seg += 1;
                let mut w = WireWriter::new();
                w.put_slice(SEG_MAGIC);
                w.put_u16(VERSION);
                w.put_u64(lsn);
                w.put_slice(&frame.into_vec());
                (index, w.into_vec())
            }
        };
        let path = seg_path(&self.dir, index);
        match self.vfs.append(&path, &buf) {
            Err(e) => {
                // Seal: whatever landed is a torn tail; never append
                // after it.
                self.open_seg = None;
                Err(JournalError::io_at(&path, e))
            }
            Ok(()) => {
                self.lsn = lsn;
                let bytes = match self.open_seg.take() {
                    Some(s) if s.index == index => s.bytes + buf.len() as u64,
                    _ => buf.len() as u64,
                };
                self.open_seg = Some(OpenSeg { index, bytes });
                self.registry
                    .counter("bdrmap_journal_appends_total", &[])
                    .inc();
                self.registry.gauge("bdrmap_journal_lsn", &[]).set(lsn);
                Ok(lsn)
            }
        }
    }

    /// Write a checkpoint, verify it by reading it back, then compact:
    /// keep this checkpoint and the previous one, delete older
    /// checkpoints and every segment whose records are all covered by
    /// the *previous* checkpoint (so a torn write of the next
    /// checkpoint always has an intact predecessor plus the segments
    /// to replay past it).
    pub fn checkpoint(&mut self, ckpt: &JournalCheckpoint) -> Result<(), JournalError> {
        let path = ckpt_path(&self.dir, ckpt.lsn);
        self.vfs
            .write_atomic(&path, &encode_checkpoint(ckpt))
            .map_err(|e| JournalError::io_at(&path, e))?;
        if let Err(e) = read_checkpoint(&self.vfs, &path) {
            // A silently torn rename: drop the evidence so recovery
            // does not even have to skip it, and report the failure.
            std::fs::remove_file(&path).ok();
            return Err(e);
        }

        let ckpts = self
            .checkpoints()
            .map_err(|e| JournalError::io_at(&self.dir, e))?;
        // Everything older than the previous checkpoint is prunable.
        let keep = ckpts.len().saturating_sub(2);
        for &lsn in &ckpts[..keep] {
            std::fs::remove_file(ckpt_path(&self.dir, lsn)).ok();
        }
        let cut = if ckpts.len() >= 2 {
            ckpts[ckpts.len() - 2]
        } else {
            0
        };

        // A segment is prunable when its successor starts at or below
        // cut+1 — every record it holds is then ≤ cut. The newest
        // segment has no successor and is never pruned.
        let segments = self
            .segments()
            .map_err(|e| JournalError::io_at(&self.dir, e))?;
        for pair in segments.windows(2) {
            let next_first = match segment_first_lsn(&self.vfs, &self.dir, pair[1]) {
                Some(l) => l,
                None => continue, // unreadable header: keep, be safe
            };
            let open = self.open_seg.as_ref().map(|s| s.index);
            if next_first <= cut + 1 && Some(pair[0]) != open {
                std::fs::remove_file(seg_path(&self.dir, pair[0])).ok();
            }
        }
        self.registry
            .counter("bdrmap_journal_compactions_total", &[])
            .inc();
        Ok(())
    }
}

/// Numeric middles of `<prefix>N<suffix>` file names in `dir`, sorted.
fn list_files(dir: &Path, prefix: &str, suffix: &str) -> io::Result<Vec<u64>> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(n) = name
            .strip_prefix(prefix)
            .and_then(|s| s.strip_suffix(suffix))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push(n);
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// First LSN recorded in a segment's header, if it parses.
fn segment_first_lsn(vfs: &Vfs, dir: &Path, index: u64) -> Option<u64> {
    let data = vfs.read(&seg_path(dir, index)).ok()?;
    if data.len() < SEG_HEADER || &data[..4] != SEG_MAGIC {
        return None;
    }
    let mut r = WireReader::new(&data[4..SEG_HEADER]);
    if r.get_u16().ok()? != VERSION {
        return None;
    }
    r.get_u64().ok()
}

fn encode_record(lsn: u64, seed: u64, batch: &Batch) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u8(REC_BATCH);
    w.put_u64(lsn);
    w.put_u64(seed);
    w.put_u32(batch.upserts.len() as u32);
    for tr in &batch.upserts {
        w.put_bytes32(&trace_to_vec(tr));
    }
    w.put_u32(batch.retractions.len() as u32);
    for &a in &batch.retractions {
        w.put_u32(addr_bits(a));
    }
    w.into_vec()
}

/// Parse a CRC-verified frame payload. A payload that survived its CRC
/// but does not parse is corruption, not a torn tail.
fn decode_record(path: &Path, offset: u64, payload: &[u8]) -> Result<JournalRecord, JournalError> {
    let bad = |detail: String| JournalError::corrupt(path, offset, detail);
    let mut r = WireReader::new(payload);
    let parse = |e: bdrmap_types::wire::WireError| bad(format!("record does not parse: {e}"));
    let rec_type = r.get_u8().map_err(parse)?;
    if rec_type != REC_BATCH {
        return Err(bad(format!("unknown record type {rec_type}")));
    }
    let lsn = r.get_u64().map_err(parse)?;
    let seed = r.get_u64().map_err(parse)?;
    let n_upserts = r.get_u32().map_err(parse)?;
    let mut batch = Batch::default();
    for _ in 0..n_upserts {
        let body = r.get_bytes32().map_err(parse)?;
        let tr = trace_from_slice(body).map_err(|e| bad(format!("bad trace body: {e}")))?;
        batch.upserts.push(tr);
    }
    let n_retractions = r.get_u32().map_err(parse)?;
    for _ in 0..n_retractions {
        batch.retractions.push(addr(r.get_u32().map_err(parse)?));
    }
    r.finish().map_err(parse)?;
    Ok(JournalRecord { lsn, seed, batch })
}

/// Read every intact frame of one segment. The first bad frame is the
/// torn tail (rotate-on-error guarantees nothing valid follows it);
/// CRC-valid frames that fail to parse are hard corruption.
fn scan_segment(
    path: &Path,
    data: &[u8],
    torn: &mut Vec<TornTail>,
) -> Result<Vec<(u64, JournalRecord)>, JournalError> {
    let mut out = Vec::new();
    let mut tear = |offset: u64, detail: String| {
        torn.push(TornTail {
            path: path.to_path_buf(),
            offset,
            detail,
        });
    };
    if data.len() < SEG_HEADER || &data[..4] != SEG_MAGIC {
        // A crash during the very first append can tear the header
        // itself; the record was never acked, so the segment is empty.
        tear(0, "torn or missing segment header".into());
        return Ok(out);
    }
    let version = u16::from_be_bytes([data[4], data[5]]);
    if version > VERSION {
        return Err(JournalError::corrupt(
            path,
            4,
            format!("unsupported segment version {version}"),
        ));
    }
    let mut offset = SEG_HEADER;
    while offset < data.len() {
        if data.len() - offset < FRAME_HEADER {
            tear(offset as u64, "truncated frame header".into());
            break;
        }
        let len = u32::from_be_bytes(data[offset..offset + 4].try_into().unwrap()) as usize;
        let stored = u32::from_be_bytes(data[offset + 4..offset + 8].try_into().unwrap());
        if len == 0 || len > MAX_PAYLOAD {
            tear(offset as u64, format!("implausible frame length {len}"));
            break;
        }
        if data.len() - offset - FRAME_HEADER < len {
            tear(
                offset as u64,
                format!(
                    "truncated frame: {} of {len} payload bytes",
                    data.len() - offset - FRAME_HEADER
                ),
            );
            break;
        }
        let payload = &data[offset + FRAME_HEADER..offset + FRAME_HEADER + len];
        let computed = crc32c(payload);
        if computed != stored {
            tear(
                offset as u64,
                format!("crc mismatch: stored {stored:#010x}, computed {computed:#010x}"),
            );
            break;
        }
        out.push((offset as u64, decode_record(path, offset as u64, payload)?));
        offset += FRAME_HEADER + len;
    }
    Ok(out)
}

fn encode_checkpoint(ckpt: &JournalCheckpoint) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_slice(CKPT_MAGIC);
    w.put_u16(VERSION);
    w.put_u64(ckpt.lsn);
    w.put_u64(ckpt.generation);
    w.put_u64(ckpt.pass);
    w.put_u32(ckpt.entries.len() as u32);
    for (tr, last_refresh) in &ckpt.entries {
        w.put_u64(*last_refresh);
        w.put_bytes32(&trace_to_vec(tr));
    }
    let mut out = w.into_vec();
    let crc = crc32c(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

fn read_checkpoint(vfs: &Vfs, path: &Path) -> Result<JournalCheckpoint, JournalError> {
    let data = vfs.read(path).map_err(|e| JournalError::io_at(path, e))?;
    decode_checkpoint(path, &data)
}

fn decode_checkpoint(path: &Path, data: &[u8]) -> Result<JournalCheckpoint, JournalError> {
    let bad = |offset: u64, detail: String| JournalError::corrupt(path, offset, detail);
    if data.len() < 4 + 2 + 4 {
        return Err(bad(
            0,
            format!("checkpoint too short: {} bytes", data.len()),
        ));
    }
    let body = &data[..data.len() - 4];
    let stored = u32::from_be_bytes(data[data.len() - 4..].try_into().unwrap());
    let computed = crc32c(body);
    if computed != stored {
        return Err(bad(
            (data.len() - 4) as u64,
            format!("checkpoint crc mismatch: stored {stored:#010x}, computed {computed:#010x}"),
        ));
    }
    if &body[..4] != CKPT_MAGIC {
        return Err(bad(0, "not a journal checkpoint".into()));
    }
    let mut r = WireReader::new(&body[4..]);
    let parse =
        |e: bdrmap_types::wire::WireError| bad(6, format!("checkpoint does not parse: {e}"));
    let version = r.get_u16().map_err(parse)?;
    if version > VERSION {
        return Err(bad(4, format!("unsupported checkpoint version {version}")));
    }
    let lsn = r.get_u64().map_err(parse)?;
    let generation = r.get_u64().map_err(parse)?;
    let pass = r.get_u64().map_err(parse)?;
    let n = r.get_u32().map_err(parse)?;
    let mut entries = Vec::with_capacity((n as usize).min(1 << 20));
    for _ in 0..n {
        let last_refresh = r.get_u64().map_err(parse)?;
        let body = r.get_bytes32().map_err(parse)?;
        let tr = trace_from_slice(body).map_err(|e| bad(6, format!("bad trace body: {e}")))?;
        entries.push((tr, last_refresh));
    }
    r.finish().map_err(parse)?;
    Ok(JournalCheckpoint {
        lsn,
        generation,
        pass,
        entries,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bdrmap_probe::{TraceHop, TraceStop};
    use bdrmap_types::{addr, Asn, ChaosFsConfig, ChaosVfs, FsFaultBudget};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdrmap-journal-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tr(d: u32) -> Trace {
        Trace {
            dst: addr(d),
            target_as: Asn(7),
            hops: vec![TraceHop {
                ttl: 1,
                addr: Some(addr(d ^ 0xffff)),
                time_exceeded: true,
                other_icmp: false,
                ipid: (d % 65536) as u16,
            }],
            stop: TraceStop::Completed,
        }
    }

    fn batch(d: u32) -> Batch {
        Batch {
            upserts: vec![tr(d), tr(d + 1)],
            retractions: vec![addr(d + 100)],
        }
    }

    fn open(dir: &Path, vfs: Vfs, seg_bytes: u64) -> (Journal, Recovered) {
        Journal::open_with(
            dir,
            vfs,
            Registry::new(),
            JournalConfig {
                segment_bytes: seg_bytes,
            },
        )
        .unwrap()
    }

    #[test]
    fn append_replay_round_trip() {
        let dir = tmp_dir("round-trip");
        let (mut j, rec) = open(&dir, Vfs::real(), 64 * 1024);
        assert!(rec.checkpoint.is_none());
        assert!(rec.tail.is_empty());
        for i in 0..5u64 {
            let lsn = j.append(1000 + i, &batch(i as u32 * 10 + 1)).unwrap();
            assert_eq!(lsn, i + 1);
        }
        let (j2, rec2) = open(&dir, Vfs::real(), 64 * 1024);
        assert_eq!(j2.lsn(), 5);
        assert_eq!(rec2.tail.len(), 5);
        for (i, r) in rec2.tail.iter().enumerate() {
            assert_eq!(r.lsn, i as u64 + 1);
            assert_eq!(r.seed, 1000 + i as u64);
            assert_eq!(r.batch.upserts, batch(i as u32 * 10 + 1).upserts);
            assert_eq!(r.batch.retractions, batch(i as u32 * 10 + 1).retractions);
        }
    }

    #[test]
    fn truncation_at_every_offset_recovers_a_prefix() {
        let dir = tmp_dir("trunc");
        let (mut j, _) = open(&dir, Vfs::real(), 1 << 20);
        for i in 0..3u64 {
            j.append(i, &batch(i as u32 * 10 + 1)).unwrap();
        }
        let seg = seg_path(&dir, 1);
        let full = std::fs::read(&seg).unwrap();
        // Offsets where each intact frame ends: a cut exactly there
        // recovers that many records; anywhere else, the partial frame
        // is discarded as a torn tail.
        let boundaries: Vec<usize> = {
            let mut b = vec![SEG_HEADER];
            let mut torn = Vec::new();
            for (off, _) in scan_segment(&seg, &full, &mut torn).unwrap().iter().skip(1) {
                b.push(*off as usize);
            }
            b.push(full.len());
            b
        };
        for cut in 0..=full.len() {
            let cdir = tmp_dir("trunc-cut");
            std::fs::write(seg_path(&cdir, 1), &full[..cut]).unwrap();
            let (j2, rec) = open(&cdir, Vfs::real(), 1 << 20);
            let expect = boundaries
                .iter()
                .filter(|&&b| b <= cut)
                .count()
                .saturating_sub(1);
            assert_eq!(rec.tail.len(), expect, "cut at {cut}");
            assert_eq!(j2.lsn(), expect as u64, "cut at {cut}");
            // Recovered records are bit-exact prefixes, never garbage.
            for (i, r) in rec.tail.iter().enumerate() {
                assert_eq!(r.lsn, i as u64 + 1);
                assert_eq!(r.batch.upserts, batch(i as u32 * 10 + 1).upserts);
            }
            std::fs::remove_dir_all(&cdir).ok();
        }
    }

    #[test]
    fn failed_append_rotates_and_error_names_the_segment() {
        let dir = tmp_dir("rotate");
        let chaos = ChaosVfs::new(ChaosFsConfig {
            seed: 13,
            fault_rate: 1.0,
            budget: FsFaultBudget {
                short_write: 1,
                ..Default::default()
            },
        });
        let (mut j, _) = open(&dir, chaos.vfs(), 64 * 1024);
        let err = j.append(1, &batch(1)).unwrap_err();
        match &err {
            JournalError::Io { path, .. } => {
                assert!(path.to_string_lossy().contains("seg-000001.wal"), "{err}");
            }
            other => panic!("expected Io, got {other:?}"),
        }
        // Retry lands the same LSN in a fresh segment.
        assert_eq!(j.append(1, &batch(1)).unwrap(), 1);
        assert_eq!(j.segments().unwrap(), vec![1, 2]);
        let (j2, rec) = open(&dir, Vfs::real(), 64 * 1024);
        assert_eq!(j2.lsn(), 1);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.torn.len(), 1, "torn half-frame in sealed segment");
    }

    #[test]
    fn fsync_fail_duplicate_lsn_replays_once() {
        let dir = tmp_dir("dedupe");
        let chaos = ChaosVfs::new(ChaosFsConfig {
            seed: 15,
            fault_rate: 1.0,
            budget: FsFaultBudget {
                fsync_fail: 1,
                ..Default::default()
            },
        });
        let (mut j, _) = open(&dir, chaos.vfs(), 64 * 1024);
        // The record lands whole but is unacked; the retry rewrites the
        // same LSN into the next segment.
        j.append(7, &batch(1)).unwrap_err();
        assert_eq!(j.append(7, &batch(1)).unwrap(), 1);
        assert_eq!(j.append(8, &batch(11)).unwrap(), 2);
        let (j2, rec) = open(&dir, Vfs::real(), 64 * 1024);
        assert_eq!(j2.lsn(), 2);
        assert_eq!(rec.tail.len(), 2, "duplicate LSN must replay once");
        assert_eq!(rec.tail[0].lsn, 1);
        assert_eq!(rec.tail[1].lsn, 2);
    }

    #[test]
    fn checkpoint_skips_replayed_prefix_and_prunes() {
        let dir = tmp_dir("compact");
        // segment_bytes = 1: every append rotates to its own segment.
        let (mut j, _) = open(&dir, Vfs::real(), 1);
        for i in 0..6u64 {
            j.append(i, &batch(i as u32 * 10 + 1)).unwrap();
        }
        j.checkpoint(&JournalCheckpoint {
            lsn: 3,
            generation: 9,
            pass: 3,
            entries: vec![(tr(1), 1), (tr(2), 3)],
        })
        .unwrap();
        // First compaction: no previous checkpoint, nothing pruned.
        assert_eq!(j.segments().unwrap().len(), 6);
        j.checkpoint(&JournalCheckpoint {
            lsn: 5,
            generation: 11,
            pass: 5,
            entries: vec![(tr(1), 1)],
        })
        .unwrap();
        // Second compaction prunes segments covered by checkpoint 3.
        assert_eq!(j.checkpoints().unwrap(), vec![3, 5]);
        let segs = j.segments().unwrap();
        assert!(segs.len() < 6, "segments ≤ lsn 3 pruned, got {segs:?}");
        let (j2, rec) = open(&dir, Vfs::real(), 1);
        assert_eq!(j2.lsn(), 6);
        let ck = rec.checkpoint.unwrap();
        assert_eq!((ck.lsn, ck.generation, ck.pass), (5, 11, 5));
        assert_eq!(ck.entries.len(), 1);
        assert_eq!(ck.entries[0].0, tr(1));
        let lsns: Vec<u64> = rec.tail.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, vec![6], "only the post-checkpoint tail replays");
    }

    #[test]
    fn corrupt_checkpoint_falls_back_to_previous() {
        let dir = tmp_dir("ckpt-fallback");
        let (mut j, _) = open(&dir, Vfs::real(), 64 * 1024);
        j.append(1, &batch(1)).unwrap();
        j.checkpoint(&JournalCheckpoint {
            lsn: 1,
            generation: 1,
            pass: 1,
            entries: vec![(tr(1), 1)],
        })
        .unwrap();
        j.append(2, &batch(11)).unwrap();
        j.checkpoint(&JournalCheckpoint {
            lsn: 2,
            generation: 2,
            pass: 2,
            entries: vec![(tr(1), 1), (tr(11), 2)],
        })
        .unwrap();
        // Flip one byte of the newest checkpoint: recovery must fall
        // back to checkpoint 1 and replay LSN 2 from the journal.
        let newest = ckpt_path(&dir, 2);
        let mut data = std::fs::read(&newest).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x40;
        std::fs::write(&newest, &data).unwrap();
        let (j2, rec) = open(&dir, Vfs::real(), 64 * 1024);
        assert_eq!(rec.checkpoints_skipped, 1);
        let ck = rec.checkpoint.unwrap();
        assert_eq!(ck.lsn, 1);
        assert_eq!(rec.tail.len(), 1);
        assert_eq!(rec.tail[0].lsn, 2);
        assert_eq!(j2.lsn(), 2);
    }

    #[test]
    fn torn_checkpoint_write_reports_and_keeps_previous() {
        let dir = tmp_dir("ckpt-torn");
        let (mut j, _) = open(&dir, Vfs::real(), 64 * 1024);
        j.append(1, &batch(1)).unwrap();
        j.checkpoint(&JournalCheckpoint {
            lsn: 1,
            generation: 1,
            pass: 1,
            entries: vec![(tr(1), 1)],
        })
        .unwrap();
        j.append(2, &batch(11)).unwrap();
        // Swap in a torn-rename injector for the second checkpoint: the
        // write "succeeds" but the file is truncated; read-back
        // verification must catch it and the call must fail.
        let chaos = ChaosVfs::new(ChaosFsConfig {
            seed: 21,
            fault_rate: 1.0,
            budget: FsFaultBudget {
                torn_rename: 1,
                ..Default::default()
            },
        });
        let (mut jc, _) = open(&dir, chaos.vfs(), 64 * 1024);
        let err = jc
            .checkpoint(&JournalCheckpoint {
                lsn: 2,
                generation: 2,
                pass: 2,
                entries: vec![(tr(1), 1), (tr(11), 2)],
            })
            .unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { .. }), "{err}");
        // Recovery still finds checkpoint 1 and the LSN-2 tail.
        let (_, rec) = open(&dir, Vfs::real(), 64 * 1024);
        assert_eq!(rec.checkpoint.unwrap().lsn, 1);
        assert_eq!(rec.tail.len(), 1);
    }

    #[test]
    fn crc_mismatch_surfaces_the_failing_offset() {
        let dir = tmp_dir("crc-offset");
        let (mut j, _) = open(&dir, Vfs::real(), 1 << 20);
        j.append(1, &batch(1)).unwrap();
        j.append(2, &batch(11)).unwrap();
        let seg = seg_path(&dir, 1);
        let full = std::fs::read(&seg).unwrap();
        let mut torn = Vec::new();
        let frames = scan_segment(&seg, &full, &mut torn).unwrap();
        let second_off = frames[1].0;
        // Corrupt the second frame's payload.
        let mut data = full.clone();
        data[second_off as usize + FRAME_HEADER + 2] ^= 0x01;
        std::fs::write(&seg, &data).unwrap();
        let (_, rec) = open(&dir, Vfs::real(), 1 << 20);
        assert_eq!(rec.tail.len(), 1, "first record survives");
        assert_eq!(rec.torn.len(), 1);
        assert_eq!(rec.torn[0].offset, second_off);
        assert!(
            rec.torn[0].detail.contains("crc mismatch"),
            "{:?}",
            rec.torn
        );
    }

    #[test]
    fn lsn_gap_is_hard_corruption() {
        let dir = tmp_dir("gap");
        let (mut j, _) = open(&dir, Vfs::real(), 1);
        for i in 0..3u64 {
            j.append(i, &batch(i as u32 * 10 + 1)).unwrap();
        }
        // Deleting the middle segment loses an acked record; recovery
        // must refuse rather than silently skip it.
        std::fs::remove_file(seg_path(&dir, 2)).unwrap();
        let err = Journal::open_with(
            &dir,
            Vfs::real(),
            Registry::new(),
            JournalConfig { segment_bytes: 1 },
        )
        .unwrap_err();
        match err {
            JournalError::Corrupt { detail, .. } => {
                assert!(detail.contains("lsn gap"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn checkpoint_round_trips_every_field() {
        let ck = JournalCheckpoint {
            lsn: 42,
            generation: 17,
            pass: 40,
            entries: vec![(tr(1), 3), (tr(9), 40)],
        };
        let bytes = encode_checkpoint(&ck);
        let back = decode_checkpoint(Path::new("x"), &bytes).unwrap();
        assert_eq!(back.lsn, 42);
        assert_eq!(back.generation, 17);
        assert_eq!(back.pass, 40);
        assert_eq!(back.entries, ck.entries);
        // Any truncation is rejected.
        for cut in 0..bytes.len() {
            assert!(
                decode_checkpoint(Path::new("x"), &bytes[..cut]).is_err(),
                "cut at {cut}"
            );
        }
    }
}
