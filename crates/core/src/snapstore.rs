//! Crash-safe snapshot store: generations, a manifest, and rollback.
//!
//! A serving deployment republishes border-map snapshots continuously;
//! any of those writes can be torn by a crash, and any byte on disk can
//! rot. [`SnapStore`] manages a directory of generation-numbered
//! snapshot files (`gen-000042.bdrm`) plus a tiny `MANIFEST` pointing
//! at the last *verified-good* generation. Both the snapshot and the
//! manifest are written atomically (write-to-sibling + fsync + rename),
//! and a snapshot is only referenced by the manifest after it has been
//! read back and verified — checksums and structure.
//!
//! Verification is the same single pass everywhere: one
//! [`flat::verify_integrity`] and one [`flat::validate_structure`] over
//! the file's bytes, with no [`BorderMap`] built. The load path hands
//! the bytes on with the [`Layout`] and [`Validated`] proof that pass
//! produced, so a server assembles its view without verifying again.
//!
//! The load path is where the crash safety pays off:
//! [`load_verified`](SnapStore::load_verified) starts from the manifest
//! generation and walks *backwards* on failure. A snapshot that fails
//! verification (bad magic, a version other than v3, failed CRC,
//! truncation, a structural fault) is quarantined into
//! `corrupt/` — preserving the evidence without leaving a landmine on
//! the load path — and the previous generation is tried, so a single
//! bad publish degrades service to the last good map instead of taking
//! the daemon down. If the quarantine move *itself* fails (a disk this
//! unhealthy can fail a rename too), the rollback continues anyway: a
//! bad file we could not move is still a file we refuse to serve.
//!
//! Every durable operation goes through a [`Vfs`] seam, so the chaos
//! harness can inject `ENOSPC`, torn renames, and read-side bit-rot
//! under the store and prove these recovery paths actually fire.
//! Health gauges (current generation, on-disk bytes, quarantine count)
//! land in the [`Registry`] the store was opened with.

use crate::flat::{self, Layout, Validated};
use crate::output::BorderMap;
use crate::snapshot::{self, SnapshotError};
use bdrmap_obs::Registry;
use bdrmap_types::Vfs;
use std::io;
use std::path::{Path, PathBuf};

/// Manifest file name inside the store directory.
const MANIFEST: &str = "MANIFEST";
/// Quarantine subdirectory for snapshots that failed verification.
const CORRUPT_DIR: &str = "corrupt";

/// Why the store could not produce a verified snapshot.
#[derive(Debug)]
pub enum StoreError {
    /// The store directory holds no snapshot generations at all.
    Empty,
    /// Every generation present failed verification (all quarantined).
    AllCorrupt {
        /// How many generations were tried and quarantined.
        tried: usize,
    },
    /// Filesystem trouble outside a snapshot's own content, with the
    /// path that failed — chaos-run logs are useless without it.
    Io {
        /// The file or directory the operation failed on.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
}

impl StoreError {
    fn io_at(path: impl Into<PathBuf>, source: io::Error) -> StoreError {
        StoreError::Io {
            path: path.into(),
            source,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Empty => write!(f, "snapshot store holds no generations"),
            StoreError::AllCorrupt { tried } => {
                write!(f, "all {tried} snapshot generations failed verification")
            }
            StoreError::Io { path, source } => {
                write!(
                    f,
                    "snapshot store I/O error at {}: {source}",
                    path.display()
                )
            }
        }
    }
}

impl std::error::Error for StoreError {}

/// One quarantined generation: which one, and why it failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quarantined {
    /// The generation number that failed verification.
    pub generation: u64,
    /// Human-readable failure reason (decode error or read error).
    pub reason: String,
}

/// The result of a verified load: the snapshot bytes with the proof of
/// their one verification, where they came from, and what had to be
/// thrown out along the way.
#[derive(Debug)]
pub struct LoadOutcome {
    /// The exact on-disk bytes that passed verification. A server opens
    /// its zero-copy view over these ([`flat::V3View::from_validated`]
    /// with `layout` and `proof`) instead of re-reading the file (and
    /// racing a concurrent republish).
    pub bytes: Vec<u8>,
    /// The section layout [`flat::verify_integrity`] derived from
    /// `bytes`.
    pub layout: Layout,
    /// Evidence that [`flat::validate_structure`] accepted `bytes`.
    pub proof: Validated,
    /// The generation it was loaded from.
    pub generation: u64,
    /// Generations quarantined during this load, newest first. Empty on
    /// the happy path; non-empty means the store rolled back.
    pub quarantined: Vec<Quarantined>,
}

impl LoadOutcome {
    /// True when the load had to fall back past a bad generation.
    pub fn rolled_back(&self) -> bool {
        !self.quarantined.is_empty()
    }
}

/// A directory of generation-numbered border-map snapshots.
#[derive(Debug, Clone)]
pub struct SnapStore {
    dir: PathBuf,
    vfs: Vfs,
    registry: Registry,
}

impl SnapStore {
    /// Open (creating if needed) the store at `dir`, on the real
    /// filesystem, reporting to the process-wide registry.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SnapStore> {
        SnapStore::open_with(dir, Vfs::real(), bdrmap_obs::global().clone())
    }

    /// Open with an explicit filesystem seam and metric registry — the
    /// chaos harness injects faults through the former; bdrmapd wires
    /// its private registry through the latter so `query --metrics`
    /// exposes the store's gauges.
    pub fn open_with(
        dir: impl Into<PathBuf>,
        vfs: Vfs,
        registry: Registry,
    ) -> io::Result<SnapStore> {
        let dir = dir.into();
        vfs.create_dir_all(&dir.join(CORRUPT_DIR))?;
        let store = SnapStore { dir, vfs, registry };
        store.refresh_gauges();
        Ok(store)
    }

    /// Kept so callers written when the store could publish older
    /// formats (the `perfbench/` workloads) still compile. v3 is the
    /// only format, so `version` must be [`flat::VERSION`]; nothing is
    /// stored.
    pub fn with_snapshot_version(self, version: u16) -> SnapStore {
        assert_eq!(
            version,
            flat::VERSION,
            "BDRM v{} is the only snapshot format",
            flat::VERSION
        );
        self
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The registry this store reports to.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Path of generation `gen`'s snapshot file.
    pub fn path_of(&self, gen: u64) -> PathBuf {
        self.dir.join(format!("gen-{gen:06}.bdrm"))
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join(MANIFEST)
    }

    /// Generation the manifest points at, if the manifest exists and
    /// parses. A torn or garbled manifest reads as `None`: the load
    /// path then falls back to the newest generation on disk.
    pub fn manifest_generation(&self) -> Option<u64> {
        let bytes = self.vfs.read(&self.manifest_path()).ok()?;
        let text = String::from_utf8(bytes).ok()?;
        let mut lines = text.lines();
        if lines.next()? != "bdrm-store v1" {
            return None;
        }
        let gen_line = lines.next()?;
        gen_line.strip_prefix("generation ")?.trim().parse().ok()
    }

    fn write_manifest(&self, gen: u64) -> Result<(), StoreError> {
        let body = format!("bdrm-store v1\ngeneration {gen}\n");
        self.vfs
            .write_atomic(&self.manifest_path(), body.as_bytes())
            .map_err(|e| StoreError::io_at(self.manifest_path(), e))
    }

    /// All generation numbers present on disk, ascending.
    pub fn generations(&self) -> io::Result<Vec<u64>> {
        let mut gens = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(g) = name
                .strip_prefix("gen-")
                .and_then(|s| s.strip_suffix(".bdrm"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                gens.push(g);
            }
        }
        gens.sort_unstable();
        Ok(gens)
    }

    /// The newest generation the store considers current: the max of
    /// what the manifest references and what exists on disk, `0` for an
    /// empty store. This is the value [`SnapStore::publish`] increments
    /// from, and what a journal checkpoint records to tie durable
    /// engine state to the snapshot it produced.
    pub fn newest_generation(&self) -> io::Result<u64> {
        let latest = self.generations()?.last().copied().unwrap_or(0);
        Ok(latest.max(self.manifest_generation().unwrap_or(0)))
    }

    /// Refresh the store-health gauges: the generation currently
    /// referenced, total snapshot bytes on disk, and how many files sit
    /// in quarantine.
    fn refresh_gauges(&self) {
        if let Some(gen) = self.manifest_generation() {
            self.registry
                .gauge("bdrmap_snapstore_generation", &[])
                .set(gen);
        }
        if let Ok(gens) = self.generations() {
            let bytes: u64 = gens
                .iter()
                .filter_map(|&g| std::fs::metadata(self.path_of(g)).ok())
                .map(|m| m.len())
                .sum();
            self.registry
                .gauge("bdrmap_snapstore_disk_bytes", &[])
                .set(bytes);
        }
        let quarantined = std::fs::read_dir(self.dir.join(CORRUPT_DIR))
            .map(|d| d.count() as u64)
            .unwrap_or(0);
        self.registry
            .gauge("bdrmap_snapstore_quarantined_files", &[])
            .set(quarantined);
    }

    /// Publish `map` as the next generation: write it atomically, read
    /// it back and verify it (every checksum, then the structural pass),
    /// and only then advance the manifest. Returns the new generation
    /// number. Errors carry the offending path.
    pub fn publish(&self, map: &BorderMap) -> io::Result<u64> {
        let gen = self
            .newest_generation()?
            .checked_add(1)
            .expect("snapshot generation counter overflowed u64");
        let path = self.path_of(gen);
        let at = |e: io::Error| io::Error::new(e.kind(), format!("{}: {e}", path.display()));
        let encoded = snapshot::encode_v3(map)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e.to_string()))?;
        self.vfs.write_atomic(&path, &encoded).map_err(at)?;
        // Read-back verification: never point the manifest at bytes
        // that were not proven servable from disk. The read goes
        // through the seam too, so injected torn renames and bit-rot
        // are caught *here*, before the manifest moves.
        let bytes = self.vfs.read(&path).map_err(at)?;
        verify(&bytes).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: read-back verification failed: {e}", path.display()),
            )
        })?;
        self.write_manifest(gen).map_err(|e| match e {
            StoreError::Io { path, source } => {
                io::Error::new(source.kind(), format!("{}: {source}", path.display()))
            }
            other => io::Error::other(other.to_string()),
        })?;
        self.registry
            .counter("bdrmap_snapstore_publishes_total", &[])
            .inc();
        self.registry
            .gauge("bdrmap_snapstore_generation", &[])
            .set(gen);
        self.refresh_gauges();
        Ok(gen)
    }

    /// Move a failed snapshot into `corrupt/`, preserving its name (a
    /// numeric suffix is added if a previous quarantine collides).
    fn quarantine(&self, gen: u64) -> io::Result<PathBuf> {
        let src = self.path_of(gen);
        let base = self.dir.join(CORRUPT_DIR);
        let name = format!("gen-{gen:06}.bdrm");
        let mut dst = base.join(&name);
        let mut n = 1;
        while dst.exists() {
            dst = base.join(format!("{name}.{n}"));
            n += 1;
        }
        self.vfs.rename(&src, &dst)?;
        Ok(dst)
    }

    /// Load the newest verified-good snapshot, quarantining and rolling
    /// past any generation that fails verification. On success the
    /// manifest is re-pointed at the generation actually served, so the
    /// next load does not re-tread the bad path.
    pub fn load_verified(&self) -> Result<LoadOutcome, StoreError> {
        let mut gens = self
            .generations()
            .map_err(|e| StoreError::io_at(&self.dir, e))?;
        if gens.is_empty() {
            return Err(StoreError::Empty);
        }
        // Prefer the manifest's generation when it is still on disk;
        // anything newer is an unreferenced (possibly half-published)
        // file, but it is still the freshest candidate, so try it first
        // and let verification decide.
        let mut quarantined = Vec::new();
        while let Some(gen) = gens.pop() {
            let path = self.path_of(gen);
            let verified = self
                .vfs
                .read(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))
                .and_then(|bytes| match verify(&bytes) {
                    Ok((layout, proof)) => Ok((bytes, layout, proof)),
                    Err(e) => Err(format!("{}: {e}", path.display())),
                });
            match verified {
                Ok((bytes, layout, proof)) => {
                    if self.manifest_generation() != Some(gen) {
                        self.write_manifest(gen)?;
                    }
                    if !quarantined.is_empty() {
                        self.registry
                            .counter("bdrmap_snapstore_rollbacks_total", &[])
                            .inc();
                    }
                    self.registry
                        .gauge("bdrmap_snapstore_generation", &[])
                        .set(gen);
                    self.refresh_gauges();
                    return Ok(LoadOutcome {
                        bytes,
                        layout,
                        proof,
                        generation: gen,
                        quarantined,
                    });
                }
                Err(reason) => {
                    eprintln!(
                        "snapstore: generation {gen} failed verification ({reason}); \
                         quarantining and rolling back"
                    );
                    // The double-fault path: on a disk sick enough to
                    // corrupt snapshots, the quarantine rename can fail
                    // too. That must not abort the rollback — a bad
                    // file we could not move is still a file we refuse
                    // to serve (it will be re-tried, and re-refused, on
                    // the next load).
                    match self.quarantine(gen) {
                        Ok(_) => {
                            self.registry
                                .counter("bdrmap_snapstore_quarantines_total", &[])
                                .inc();
                        }
                        Err(qe) => {
                            self.registry
                                .counter("bdrmap_snapstore_quarantine_failures_total", &[])
                                .inc();
                            eprintln!(
                                "snapstore: quarantine of generation {gen} failed ({qe}); \
                                 rolling back anyway"
                            );
                        }
                    }
                    quarantined.push(Quarantined {
                        generation: gen,
                        reason,
                    });
                }
            }
        }
        self.refresh_gauges();
        Err(StoreError::AllCorrupt {
            tried: quarantined.len(),
        })
    }
}

/// The one verification every snapshot gets on its way in: integrity,
/// then structure.
fn verify(bytes: &[u8]) -> Result<(Layout, Validated), SnapshotError> {
    let layout = flat::verify_integrity(bytes)?;
    let proof = flat::validate_structure(bytes, &layout)?;
    Ok((layout, proof))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::output::{Heuristic, InferredLink, InferredRouter};
    use bdrmap_types::vfs::{ChaosFsConfig, ChaosVfs, FsFaultBudget};
    use bdrmap_types::Asn;

    /// The probe-traffic figure of the map a load served.
    fn packets(out: &LoadOutcome) -> u64 {
        flat::V3View::from_validated(out.bytes.clone(), out.layout, out.proof, std::iter::empty())
            .packets()
    }

    fn sample(packets: u64) -> BorderMap {
        BorderMap {
            routers: vec![InferredRouter {
                addrs: vec!["10.0.0.1".parse().unwrap()],
                other_addrs: vec![],
                owner: Some(Asn(64500)),
                heuristic: Some(Heuristic::VpInternal),
                min_hop: 1,
            }],
            links: vec![InferredLink {
                near: 0,
                far: None,
                far_as: Asn(64501),
                near_addr: Some("10.0.0.1".parse().unwrap()),
                far_addr: None,
                heuristic: Heuristic::OneNet,
            }],
            packets,
            elapsed_ms: 7,
        }
    }

    fn fresh_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("bdrmap-snapstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn publish_load_round_trip_advances_generations() {
        let dir = fresh_dir("roundtrip");
        let store = SnapStore::open(&dir).unwrap();
        assert!(matches!(store.load_verified(), Err(StoreError::Empty)));
        assert_eq!(store.publish(&sample(1)).unwrap(), 1);
        assert_eq!(store.publish(&sample(2)).unwrap(), 2);
        assert_eq!(store.manifest_generation(), Some(2));
        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, 2);
        assert_eq!(packets(&out), 2);
        assert!(!out.rolled_back());
        assert_eq!(store.generations().unwrap(), vec![1, 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flipped_newest_rolls_back_and_quarantines() {
        let dir = fresh_dir("bitflip");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        let path = store.path_of(2);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();

        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, 1);
        assert_eq!(packets(&out), 1);
        assert!(out.rolled_back());
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].generation, 2);
        // The bad file moved to corrupt/, and the manifest self-healed.
        assert!(!path.exists());
        assert!(dir.join(CORRUPT_DIR).join("gen-000002.bdrm").exists());
        assert_eq!(store.manifest_generation(), Some(1));
        // A later load does not re-tread the quarantined generation.
        assert!(!store.load_verified().unwrap().rolled_back());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_newest_rolls_back() {
        let dir = fresh_dir("truncate");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        let path = store.path_of(2);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, 1);
        assert!(out.rolled_back());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn all_corrupt_is_a_typed_error() {
        let dir = fresh_dir("allcorrupt");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        for gen in [1, 2] {
            std::fs::write(store.path_of(gen), b"BDRMgarbage").unwrap();
        }
        match store.load_verified() {
            Err(StoreError::AllCorrupt { tried }) => assert_eq!(tried, 2),
            other => panic!("expected AllCorrupt, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_falls_back_to_directory_scan() {
        let dir = fresh_dir("tornmanifest");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        // A torn manifest write: half a header, no generation line.
        std::fs::write(dir.join(MANIFEST), b"bdrm-st").unwrap();
        assert_eq!(store.manifest_generation(), None);
        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, 2);
        // The manifest was repaired.
        assert_eq!(store.manifest_generation(), Some(2));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_at_every_byte_offset_recovers() {
        let dir = fresh_dir("tornmanifest-sweep");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        let full = std::fs::read(dir.join(MANIFEST)).unwrap();
        for cut in 0..full.len() {
            std::fs::write(dir.join(MANIFEST), &full[..cut]).unwrap();
            // Whatever prefix survived — empty file, half a header, a
            // parseable-but-stale generation line — the load must serve
            // the newest good generation and repair the manifest.
            let out = store.load_verified().unwrap();
            assert_eq!(out.generation, 2, "cut at {cut}");
            assert!(!out.rolled_back(), "cut at {cut}: nothing to quarantine");
            assert_eq!(store.manifest_generation(), Some(2), "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quarantine_rename_failure_does_not_abort_rollback() {
        let dir = fresh_dir("doublefault");
        // A vfs whose *renames* always fail (and nothing else): publish
        // works, but quarantine's move cannot.
        let chaos = ChaosVfs::new(ChaosFsConfig {
            seed: 77,
            fault_rate: 1.0,
            budget: FsFaultBudget {
                rename_fail: 8,
                ..Default::default()
            },
        });
        let registry = Registry::new();
        let store = SnapStore::open_with(&dir, chaos.vfs(), registry.clone()).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        std::fs::write(store.path_of(2), b"BDRMgarbage").unwrap();

        let out = store.load_verified().unwrap();
        assert_eq!(
            out.generation, 1,
            "rollback must proceed past the double fault"
        );
        assert!(out.rolled_back());
        assert_eq!(out.quarantined[0].generation, 2);
        // The move failed: the corrupt file is still in place, counted
        // as a quarantine *failure*, and corrupt/ stayed empty.
        assert!(store.path_of(2).exists());
        assert_eq!(
            registry
                .counter("bdrmap_snapstore_quarantine_failures_total", &[])
                .get(),
            1
        );
        assert_eq!(std::fs::read_dir(dir.join(CORRUPT_DIR)).unwrap().count(), 0);
        // Manifest still healed to the generation actually served.
        assert_eq!(store.manifest_generation(), Some(1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_publish_failures_roll_back_to_last_good() {
        let dir = fresh_dir("chaospublish");
        let registry = Registry::new();
        // Clean handle for the baseline publish, chaos handle for the
        // assault; both share the directory and registry.
        let clean = SnapStore::open_with(&dir, Vfs::real(), registry.clone()).unwrap();
        let g0 = clean.publish(&sample(1)).unwrap();
        let chaos = ChaosVfs::new(ChaosFsConfig {
            seed: 4242,
            fault_rate: 1.0,
            budget: FsFaultBudget {
                enospc: 1,
                short_write: 1,
                fsync_fail: 1,
                torn_rename: 2,
                ..Default::default()
            },
        });
        let store = SnapStore::open_with(&dir, chaos.vfs(), registry.clone()).unwrap();
        let mut last_good = g0;
        let mut last_published = g0;
        for round in 0..8 {
            let torn_before = chaos.injected(bdrmap_types::FaultKind::TornRename);
            match store.publish(&sample(100 + round)) {
                Ok(g) => {
                    assert!(g > last_published, "round {round}: generations monotone");
                    last_published = g;
                    last_good = g;
                }
                Err(_) => {
                    let out = store.load_verified().unwrap();
                    assert_eq!(
                        out.generation, last_good,
                        "round {round}: must serve last good generation"
                    );
                    if chaos.injected(bdrmap_types::FaultKind::TornRename) > torn_before {
                        // A torn rename left a corrupt file behind;
                        // the load must have quarantined it.
                        assert!(out.rolled_back(), "round {round}");
                    }
                }
            }
        }
        assert_eq!(chaos.injected_total(), 5, "whole budget spent at rate 1.0");
        // Quiesced, the store converges: publish succeeds and serves.
        chaos.quiesce();
        let g = store.publish(&sample(999)).unwrap();
        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, g);
        assert_eq!(packets(&out), 999);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gauges_track_generation_bytes_and_quarantines() {
        let dir = fresh_dir("gauges");
        let registry = Registry::new();
        let store = SnapStore::open_with(&dir, Vfs::real(), registry.clone()).unwrap();
        store.publish(&sample(1)).unwrap();
        store.publish(&sample(2)).unwrap();
        let on_disk: u64 = [1, 2]
            .iter()
            .map(|&g| std::fs::metadata(store.path_of(g)).unwrap().len())
            .sum();
        assert_eq!(registry.gauge("bdrmap_snapstore_generation", &[]).get(), 2);
        assert_eq!(
            registry.gauge("bdrmap_snapstore_disk_bytes", &[]).get(),
            on_disk
        );
        assert_eq!(
            registry
                .gauge("bdrmap_snapstore_quarantined_files", &[])
                .get(),
            0
        );
        // Corrupt the newest; the rollback moves it to corrupt/ and the
        // gauges follow.
        std::fs::write(store.path_of(2), b"BDRMgarbage").unwrap();
        store.load_verified().unwrap();
        assert_eq!(registry.gauge("bdrmap_snapstore_generation", &[]).get(), 1);
        assert_eq!(
            registry
                .gauge("bdrmap_snapstore_quarantined_files", &[])
                .get(),
            1
        );
        assert!(registry.gauge("bdrmap_snapstore_disk_bytes", &[]).get() < on_disk);
        let text = registry.render();
        assert!(text.contains("bdrmap_snapstore_generation 1"), "{text}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_pointing_at_missing_file_falls_back() {
        let dir = fresh_dir("missingfile");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        let gen2 = store.publish(&sample(2)).unwrap();
        std::fs::remove_file(store.path_of(gen2)).unwrap();
        let out = store.load_verified().unwrap();
        assert_eq!(out.generation, 1);
        assert!(!out.rolled_back(), "a missing file is not a quarantine");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_quarantines_do_not_collide() {
        let dir = fresh_dir("requarantine");
        let store = SnapStore::open(&dir).unwrap();
        store.publish(&sample(1)).unwrap();
        for round in 0..2 {
            // A half-published gen 2 appears and is corrupt.
            std::fs::write(store.path_of(2), b"BDRMnope").unwrap();
            let out = store.load_verified().unwrap();
            assert_eq!(out.generation, 1, "round {round}");
            assert!(out.rolled_back());
        }
        let corrupt: Vec<_> = std::fs::read_dir(dir.join(CORRUPT_DIR))
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(corrupt.len(), 2, "both quarantines kept: {corrupt:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
