//! Checkpoint/resume for long probing runs.
//!
//! A full bdrmap run at 100 pps spans simulated days; a crash near the
//! end would discard everything. This module periodically writes the
//! run's complete state to disk — the traces gathered so far, the raw
//! probe counters, and a snapshot of the data plane's mutable router
//! state (IPID counters, rate-limit tallies) — so an interrupted run
//! resumed from the last checkpoint produces **exactly** the output an
//! uninterrupted run would have.
//!
//! Checkpointed runs are sequential (one target AS at a time): the
//! checkpoint boundary falls between target ASes, where per-AS stop
//! sets start empty and the quarantine ledger carries no state forward
//! (blocks never repeat across ASes), so the only state that must be
//! persisted is the counters and the router runtime.
//!
//! Layout (versioned, length-prefixed, like [`crate::store`]):
//!
//! ```text
//! magic "BDRC" | u16 version = 2 | u32 next_target | u64 packets |
//! u64 clock_us | runtime | u32 blob_len | blob | u32 crc32c
//! runtime := u32 n | (u32 router, u16 val, u64 ms)* |
//!            u32 n | (u32 addr,   u16 val, u64 ms)* |
//!            u32 n | (u32 router, u64 count)*
//! blob    := a "BDRW" trace store of the traces gathered so far,
//!            whose budget is (packets, clock_us / 1000)
//! crc32c  := CRC32C of every byte before it
//! ```
//!
//! The reader is strict: it accepts only what [`Checkpoint::encode`]
//! writes. A wrong checksum, a version other than 2 (version 1 had no
//! checksum and is refused like any retired format), runtime entries
//! out of ascending order or repeated, a blob budget that disagrees with
//! the header, and bytes between the blob and the checksum are all
//! refused, so any checkpoint that decodes re-encodes to its own bytes.

use crate::engine::{run_traces, ProbeBudget, ProbeEngine, RunOptions, TraceCollection};
use crate::store::{self, StoreError};
use crate::targets::TargetAs;
use crate::trace::Trace;
use bdrmap_dataplane::RuntimeSnapshot;
use bdrmap_types::integrity::crc32c;
use bdrmap_types::{addr, Addr, RouterId};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::path::PathBuf;

/// File magic.
const MAGIC: &[u8; 4] = b"BDRC";
/// Current format version.
const VERSION: u16 = 2;

/// When and where checkpoints are written.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Write a checkpoint after every `every` completed target ASes.
    pub every: u32,
    /// Checkpoint file path (atomically replaced on each write).
    pub path: PathBuf,
    /// Filesystem seam the checkpoints go through; the chaos harness
    /// injects write faults here. Defaults to the real filesystem.
    pub vfs: bdrmap_types::Vfs,
}

/// The complete resumable state of an interrupted probing run.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Traces gathered before the checkpoint, in run order.
    pub traces: Vec<Trace>,
    /// Index of the first target AS not yet probed.
    pub next_target: u32,
    /// Packets sent so far.
    pub packets: u64,
    /// Logical clock in microseconds (exact, unlike the ms-rounded
    /// [`ProbeBudget`]).
    pub clock_us: u64,
    /// Mutable router state of the data plane at the checkpoint.
    pub runtime: RuntimeSnapshot,
}

impl Checkpoint {
    /// Serialize to the canonical byte encoding.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        buf.put_slice(MAGIC);
        buf.put_u16(VERSION);
        buf.put_u32(self.next_target);
        buf.put_u64(self.packets);
        buf.put_u64(self.clock_us);
        buf.put_u32(self.runtime.shared.len() as u32);
        for &(r, v, t) in &self.runtime.shared {
            buf.put_u32(r.0);
            buf.put_u16(v);
            buf.put_u64(t);
        }
        buf.put_u32(self.runtime.per_iface.len() as u32);
        for &(a, v, t) in &self.runtime.per_iface {
            buf.put_u32(u32::from(a));
            buf.put_u16(v);
            buf.put_u64(t);
        }
        buf.put_u32(self.runtime.emitted.len() as u32);
        for &(r, n) in &self.runtime.emitted {
            buf.put_u32(r.0);
            buf.put_u64(n);
        }
        let blob = store::encode(&TraceCollection {
            traces: self.traces.clone(),
            budget: ProbeBudget {
                packets: self.packets,
                elapsed_ms: self.clock_us / 1000,
            },
        });
        buf.put_u32(blob.len() as u32);
        buf.extend_from_slice(&blob);
        let crc = crc32c(&buf);
        buf.put_u32(crc);
        buf.freeze()
    }

    /// Parse the canonical byte encoding, refusing any other.
    pub fn decode(data: Bytes) -> Result<Checkpoint, StoreError> {
        if data.remaining() < 4 + 2 + 4 + 8 + 8 + 4 {
            return Err(StoreError::Truncated);
        }
        if &data[..4] != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let version = u16::from_be_bytes([data[4], data[5]]);
        if version != VERSION {
            return Err(StoreError::BadVersion(version));
        }
        let body_len = data.len() - 4;
        let want = u32::from_be_bytes(data[body_len..].try_into().expect("four bytes"));
        if crc32c(&data[..body_len]) != want {
            return Err(StoreError::BadChecksum);
        }
        let mut data = data.slice(6..body_len);
        let next_target = data.get_u32();
        let packets = data.get_u64();
        let clock_us = data.get_u64();
        let need = |data: &Bytes, n: usize| {
            if data.remaining() < n {
                Err(StoreError::Truncated)
            } else {
                Ok(())
            }
        };
        need(&data, 4)?;
        let n = data.get_u32() as usize;
        let mut shared = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            need(&data, 14)?;
            shared.push((RouterId(data.get_u32()), data.get_u16(), data.get_u64()));
        }
        ascending(shared.iter().map(|e| e.0 .0))?;
        need(&data, 4)?;
        let n = data.get_u32() as usize;
        let mut per_iface: Vec<(Addr, u16, u64)> = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            need(&data, 14)?;
            per_iface.push((addr(data.get_u32()), data.get_u16(), data.get_u64()));
        }
        ascending(per_iface.iter().map(|e| u32::from(e.0)))?;
        need(&data, 4)?;
        let n = data.get_u32() as usize;
        let mut emitted = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            need(&data, 12)?;
            emitted.push((RouterId(data.get_u32()), data.get_u64()));
        }
        ascending(emitted.iter().map(|e| e.0 .0))?;
        need(&data, 4)?;
        let blob_len = data.get_u32() as usize;
        if data.remaining() != blob_len {
            return Err(StoreError::Truncated);
        }
        let coll = store::decode(data)?;
        if coll.budget.packets != packets || coll.budget.elapsed_ms != clock_us / 1000 {
            return Err(StoreError::Truncated);
        }
        Ok(Checkpoint {
            traces: coll.traces,
            next_target,
            packets,
            clock_us,
            runtime: RuntimeSnapshot {
                shared,
                per_iface,
                emitted,
            },
        })
    }

    /// Write to `path`, replacing atomically (write-then-rename, via
    /// [`bdrmap_types::fsutil`]) so a crash mid-write never leaves a
    /// corrupt checkpoint behind.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.save_with(path, &bdrmap_types::Vfs::real())
    }

    /// Read from `path`.
    pub fn load(path: &std::path::Path) -> std::io::Result<Checkpoint> {
        Checkpoint::load_with(path, &bdrmap_types::Vfs::real())
    }

    /// [`save`](Checkpoint::save) through an explicit filesystem seam.
    /// Errors carry the offending path.
    pub fn save_with(
        &self,
        path: &std::path::Path,
        vfs: &bdrmap_types::Vfs,
    ) -> std::io::Result<()> {
        vfs.write_atomic(path, &self.encode())
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
    }

    /// [`load`](Checkpoint::load) through an explicit filesystem seam.
    /// Errors carry the offending path.
    pub fn load_with(
        path: &std::path::Path,
        vfs: &bdrmap_types::Vfs,
    ) -> std::io::Result<Checkpoint> {
        let data = vfs
            .read(path)
            .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))?;
        Checkpoint::decode(Bytes::from(data)).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }
}

/// Refuse runtime keys that are not strictly ascending, the order
/// `Runtime::snapshot` writes each table in.
fn ascending(keys: impl Iterator<Item = u32>) -> Result<(), StoreError> {
    let mut prev = None;
    for k in keys {
        if prev.is_some_and(|p| p >= k) {
            return Err(StoreError::Truncated);
        }
        prev = Some(k);
    }
    Ok(())
}

/// [`run_traces`] with periodic checkpointing, resuming from `resume`
/// if given.
///
/// Targets are probed **sequentially** (the checkpoint boundary must
/// fall between target ASes), so this is the `parallelism = 1`
/// determinism contract: a run resumed from any checkpoint finishes
/// with byte-identical traces and counters to an uninterrupted run.
/// On resume the engine's packet/clock counters and the data plane's
/// router runtime are restored before any probe is sent; a checkpoint
/// whose next target lies past `targets` belongs to another run and is
/// refused with an error naming `cfg.path`.
pub fn run_traces_checkpointed(
    engine: &ProbeEngine,
    targets: &[TargetAs],
    opts: RunOptions,
    classify_external: impl Fn(Addr) -> bool + Sync,
    cfg: &CheckpointConfig,
    resume: Option<Checkpoint>,
) -> std::io::Result<TraceCollection> {
    let opts = RunOptions {
        parallelism: 1,
        ..opts
    };
    let (mut traces, start) = match resume {
        Some(cp) => {
            if cp.next_target as usize > targets.len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "{}: checkpoint resumes at target {} of a run with {} targets",
                        cfg.path.display(),
                        cp.next_target,
                        targets.len()
                    ),
                ));
            }
            engine.restore_counters(cp.packets, cp.clock_us);
            engine.dataplane().restore_runtime(&cp.runtime);
            (cp.traces, cp.next_target as usize)
        }
        None => (Vec::new(), 0),
    };
    for (i, t) in targets.iter().enumerate().skip(start) {
        let part = run_traces(engine, std::slice::from_ref(t), opts, &classify_external);
        traces.extend(part.traces);
        let done = (i + 1) as u32;
        if cfg.every > 0 && done.is_multiple_of(cfg.every) {
            let (packets, clock_us) = engine.counters();
            Checkpoint {
                traces: traces.clone(),
                next_target: done,
                packets,
                clock_us,
                runtime: engine.dataplane().runtime_snapshot(),
            }
            .save_with(&cfg.path, &cfg.vfs)?;
        }
    }
    Ok(TraceCollection {
        traces,
        budget: engine.budget(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use crate::targets::target_blocks;
    use bdrmap_bgp::CollectorView;
    use bdrmap_dataplane::DataPlane;
    use bdrmap_topo::{generate, TopoConfig};
    use bdrmap_types::Asn;
    use std::sync::Arc;

    fn setup(seed: u64) -> (Arc<DataPlane>, CollectorView) {
        let net = generate(&TopoConfig::tiny(seed));
        let dp = Arc::new(DataPlane::new(net));
        let peers: Vec<Asn> = dp
            .internet()
            .graph
            .ases()
            .filter(|&a| dp.internet().as_info(a).kind == bdrmap_topo::AsKind::Tier1)
            .collect();
        let view = CollectorView::collect(dp.oracle(), &peers);
        (dp, view)
    }

    fn fingerprint(coll: &TraceCollection) -> Bytes {
        store::encode(coll)
    }

    fn tmp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bdrmap-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn encode_decode_round_trips() {
        let (dp, _) = setup(61);
        // Accumulate some runtime state so the snapshot is non-trivial.
        let net = dp.internet();
        let vp = net.vps[0].addr;
        let engine = ProbeEngine::new(Arc::clone(&dp), vp, EngineConfig::default());
        let dst = net.origins.iter().next().unwrap().prefix.nth(1);
        let tr = engine.trace(dst, Asn(1), &crate::StopSet::new());
        let (packets, clock_us) = engine.counters();
        let cp = Checkpoint {
            traces: vec![tr],
            next_target: 3,
            packets,
            clock_us,
            runtime: dp.runtime_snapshot(),
        };
        let back = Checkpoint::decode(cp.encode()).unwrap();
        assert_eq!(back.next_target, 3);
        assert_eq!(back.packets, cp.packets);
        assert_eq!(back.clock_us, cp.clock_us);
        assert_eq!(back.runtime, cp.runtime);
        assert_eq!(back.traces.len(), 1);
        assert_eq!(back.traces[0].dst, cp.traces[0].dst);
        assert_eq!(back.traces[0].hops, cp.traces[0].hops);
    }

    #[test]
    fn decode_rejects_corruption() {
        let cp = Checkpoint {
            traces: vec![],
            next_target: 0,
            packets: 0,
            clock_us: 0,
            runtime: RuntimeSnapshot::default(),
        };
        let full = cp.encode();
        assert!(matches!(
            Checkpoint::decode(Bytes::from_static(b"NOPE____________________________")),
            Err(StoreError::BadMagic)
        ));
        for cut in [3, 9, 20, full.len() - 1] {
            assert!(
                Checkpoint::decode(full.slice(..cut)).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    /// Replace the checksum trailer so a patched body passes it.
    fn reseal(mut bytes: Vec<u8>) -> Bytes {
        let body = bytes.len() - 4;
        let crc = crc32c(&bytes[..body]);
        bytes[body..].copy_from_slice(&crc.to_be_bytes());
        Bytes::from(bytes)
    }

    #[test]
    fn decode_refuses_what_encode_never_writes() {
        let cp = Checkpoint {
            traces: vec![],
            next_target: 2,
            packets: 7000,
            clock_us: 9_123_456,
            runtime: RuntimeSnapshot {
                shared: vec![(RouterId(3), 1, 5), (RouterId(9), 2, 6)],
                per_iface: vec![(addr(10), 3, 7), (addr(20), 4, 8)],
                emitted: vec![(RouterId(1), 4), (RouterId(2), 5)],
            },
        };
        let good = cp.encode().to_vec();
        let back = Checkpoint::decode(Bytes::from(good.clone())).unwrap();
        assert_eq!(back.encode().to_vec(), good, "canonical re-encode");
        let err = |b: Bytes| Checkpoint::decode(b).err();

        // A flipped bit is refused wherever it lands: magic, body or
        // checksum.
        for bit in [0, 60, good.len() * 8 - 1] {
            let mut bad = good.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(err(Bytes::from(bad)).is_some(), "bit {bit}");
        }
        let mut bad = good.clone();
        bad[30] ^= 4;
        assert_eq!(err(Bytes::from(bad)), Some(StoreError::BadChecksum));

        // Retired and unknown versions, even correctly sealed.
        for v in [0u16, 1, 3] {
            let mut bad = good.clone();
            bad[4..6].copy_from_slice(&v.to_be_bytes());
            assert_eq!(err(reseal(bad)), Some(StoreError::BadVersion(v)));
        }

        // Bytes between the blob and the checksum.
        let mut bad = good.clone();
        bad.splice(good.len() - 4..good.len() - 4, [0u8; 3]);
        assert_eq!(err(reseal(bad)), Some(StoreError::Truncated));

        // A header budget the blob disagrees with (packets at bytes 10..18).
        let mut bad = good.clone();
        bad[17] ^= 1;
        assert_eq!(err(reseal(bad)), Some(StoreError::Truncated));

        // Runtime entries out of order or repeated, in each table.
        let reordered = |f: &dyn Fn(&mut RuntimeSnapshot)| {
            let mut c = cp.clone();
            f(&mut c.runtime);
            Checkpoint::decode(c.encode()).err()
        };
        assert_eq!(
            reordered(&|r| r.shared.reverse()),
            Some(StoreError::Truncated)
        );
        assert_eq!(
            reordered(&|r| r.shared[1].0 = r.shared[0].0),
            Some(StoreError::Truncated)
        );
        assert_eq!(
            reordered(&|r| r.per_iface.reverse()),
            Some(StoreError::Truncated)
        );
        assert_eq!(
            reordered(&|r| r.emitted.reverse()),
            Some(StoreError::Truncated)
        );
        assert_eq!(
            reordered(&|r| r.emitted[1].0 = r.emitted[0].0),
            Some(StoreError::Truncated)
        );
    }

    #[test]
    fn resume_past_the_target_list_is_refused() {
        let (dp, view) = setup(64);
        let vp = dp.internet().vps[0].addr;
        let targets = target_blocks(&view, &dp.internet().vp_siblings);
        let cp = Checkpoint {
            traces: vec![],
            next_target: targets.len() as u32 + 1,
            packets: 0,
            clock_us: 0,
            runtime: RuntimeSnapshot::default(),
        };
        let cfg = CheckpointConfig {
            every: 1,
            path: tmp_path("past-end.bdrc"),
            vfs: bdrmap_types::Vfs::real(),
        };
        let engine = ProbeEngine::new(Arc::clone(&dp), vp, EngineConfig::default());
        let err = run_traces_checkpointed(
            &engine,
            &targets,
            RunOptions::default(),
            |_| true,
            &cfg,
            Some(cp),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("past-end.bdrc"), "{err}");
        assert_eq!(engine.counters(), (0, 0), "nothing was probed");
    }

    #[test]
    fn uncheckpointed_and_checkpointed_runs_agree() {
        let (dp1, view) = setup(62);
        let (dp2, _) = setup(62);
        let vp = dp1.internet().vps[0].addr;
        let vp_asns = dp1.internet().vp_siblings.clone();
        let targets = target_blocks(&view, &vp_asns);
        let classify = |a: Addr| {
            view.origins_of(a)
                .map(|(_, o)| !o.iter().any(|x| vp_asns.contains(x)))
                .unwrap_or(false)
        };
        let opts = RunOptions {
            parallelism: 1,
            ..Default::default()
        };
        let e1 = ProbeEngine::new(Arc::clone(&dp1), vp, EngineConfig::default());
        let plain = run_traces(&e1, &targets, opts, classify);
        let e2 = ProbeEngine::new(Arc::clone(&dp2), vp, EngineConfig::default());
        let cfg = CheckpointConfig {
            every: 2,
            path: tmp_path("agree.bdrc"),
            vfs: bdrmap_types::Vfs::real(),
        };
        let chk = run_traces_checkpointed(&e2, &targets, opts, classify, &cfg, None).unwrap();
        assert_eq!(fingerprint(&plain), fingerprint(&chk));
        std::fs::remove_file(&cfg.path).ok();
    }

    #[test]
    fn killed_and_resumed_run_matches_uninterrupted() {
        let (dp1, view) = setup(63);
        let (dp2, _) = setup(63);
        let (dp3, _) = setup(63);
        let vp = dp1.internet().vps[0].addr;
        let vp_asns = dp1.internet().vp_siblings.clone();
        let targets = target_blocks(&view, &vp_asns);
        assert!(targets.len() >= 4, "need several targets for the split");
        let classify = |a: Addr| {
            view.origins_of(a)
                .map(|(_, o)| !o.iter().any(|x| vp_asns.contains(x)))
                .unwrap_or(false)
        };
        let opts = RunOptions::default();
        let path = tmp_path("resume.bdrc");
        let k = targets.len() / 2;
        let cfg = CheckpointConfig {
            every: k as u32,
            path: path.clone(),
            vfs: bdrmap_types::Vfs::real(),
        };

        // Uninterrupted baseline.
        let e1 = ProbeEngine::new(Arc::clone(&dp1), vp, EngineConfig::default());
        let baseline = run_traces_checkpointed(&e1, &targets, opts, classify, &cfg, None).unwrap();
        std::fs::remove_file(&path).ok();

        // "Killed" run: probe the first k targets, leaving a checkpoint
        // behind, then drop engine and data plane (the process dies).
        {
            let e2 = ProbeEngine::new(Arc::clone(&dp2), vp, EngineConfig::default());
            let _ =
                run_traces_checkpointed(&e2, &targets[..k], opts, classify, &cfg, None).unwrap();
        }

        // Resume in a "fresh process": new engine, pristine data plane.
        let cp = Checkpoint::load(&path).unwrap();
        assert_eq!(cp.next_target as usize, k);
        let e3 = ProbeEngine::new(Arc::clone(&dp3), vp, EngineConfig::default());
        let resumed =
            run_traces_checkpointed(&e3, &targets, opts, classify, &cfg, Some(cp)).unwrap();

        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&resumed),
            "resumed run must be byte-identical to the uninterrupted run"
        );
        std::fs::remove_file(&path).ok();
    }
}
