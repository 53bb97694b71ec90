//! The virtual-filesystem seam: every durable write in the workspace
//! goes through a [`Vfs`] so faults can be injected under it.
//!
//! Production code holds a [`Vfs`] backed by [`RealVfs`], which is just
//! [`fsutil`](crate::fsutil) plus `std::fs`. The chaos harness swaps in
//! a [`ChaosVfs`]: a seeded, budgeted fault injector that turns
//! ordinary reads/writes/renames into the failures a long-running
//! deployment actually meets — `ENOSPC`, short writes, fsync failures,
//! torn renames (the *silent* one: the call reports success but the
//! destination holds a truncated prefix), read-side bit-rot, and rename
//! failures (so even the quarantine path can double-fault).
//!
//! Determinism contract: a [`ChaosVfs`] is a pure function of its seed
//! and the *sequence* of operations issued through it. Callers that
//! issue operations sequentially (every durable-write path in this repo
//! does) therefore replay byte-identically under the same seed; that is
//! what lets `bdrmap chaos` diff two same-seed runs.

use crate::fsutil;
use crate::splitmix64;
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// The operations a durable-write path needs. Implementations must be
/// safe to share across threads (the snapshot store is cloned into the
/// serving daemon's reload path).
pub trait VfsBackend: Send + Sync {
    /// Read a whole file.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Write a whole file atomically (write-to-sibling + fsync +
    /// rename + parent fsync; see [`fsutil::write_atomic`]).
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Append bytes to the end of a file (creating it if absent) and
    /// fsync — the write-ahead journal's primitive. Unlike
    /// `write_atomic` an interrupted append can leave a torn suffix;
    /// callers must frame appended records so a reader can detect and
    /// discard the tail.
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()>;
    /// Rename a file (quarantine moves).
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Create a directory and its parents.
    fn create_dir_all(&self, path: &Path) -> io::Result<()>;
}

/// The real-filesystem append: open O_APPEND, write, fdatasync.
fn real_append(path: &Path, data: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    f.write_all(data)?;
    f.sync_data()
}

/// The production backend: plain `std::fs` + [`fsutil`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RealVfs;

impl VfsBackend for RealVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        fsutil::write_atomic(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        real_append(path, data)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

/// A cheaply-clonable handle to a [`VfsBackend`].
#[derive(Clone)]
pub struct Vfs {
    inner: Arc<dyn VfsBackend>,
}

impl std::fmt::Debug for Vfs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Vfs")
    }
}

impl Default for Vfs {
    fn default() -> Self {
        Vfs::real()
    }
}

impl Vfs {
    /// The production filesystem.
    pub fn real() -> Vfs {
        Vfs::new(RealVfs)
    }

    /// Wrap any backend (chaos injectors, test doubles).
    pub fn new(backend: impl VfsBackend + 'static) -> Vfs {
        Vfs {
            inner: Arc::new(backend),
        }
    }

    /// Read a whole file.
    pub fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    /// Write a whole file atomically + durably.
    pub fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.write_atomic(path, data)
    }

    /// Append bytes to a file durably (journal writes). Torn suffixes
    /// are possible; frame your records.
    pub fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.inner.append(path, data)
    }

    /// Rename a file.
    pub fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    /// Create a directory and its parents.
    pub fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.inner.create_dir_all(path)
    }
}

/// The filesystem fault taxonomy (DESIGN.md §11).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// `write_atomic` fails up front with `ENOSPC`; nothing is written.
    Enospc,
    /// `write_atomic` writes a truncated temp file, then errors. The
    /// destination is untouched (the rename never runs).
    ShortWrite,
    /// `write_atomic` writes the full temp file but the fsync fails;
    /// the destination is untouched.
    FsyncFail,
    /// The silent one: `write_atomic` *returns `Ok`* but the
    /// destination holds a truncated prefix — the post-crash state of a
    /// rename that was not fsynced. Only read-back verification (CRC)
    /// can catch it.
    TornRename,
    /// `read` returns the file with one bit flipped.
    BitRot,
    /// `rename` fails (exercises the quarantine double-fault path).
    RenameFail,
}

impl FaultKind {
    /// Every kind, in stable report order.
    pub const ALL: [FaultKind; 6] = [
        FaultKind::Enospc,
        FaultKind::ShortWrite,
        FaultKind::FsyncFail,
        FaultKind::TornRename,
        FaultKind::BitRot,
        FaultKind::RenameFail,
    ];

    /// Stable lowercase label (report keys, fault log lines).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Enospc => "enospc",
            FaultKind::ShortWrite => "short_write",
            FaultKind::FsyncFail => "fsync_fail",
            FaultKind::TornRename => "torn_rename",
            FaultKind::BitRot => "bit_rot",
            FaultKind::RenameFail => "rename_fail",
        }
    }
}

/// How many faults of each kind a [`ChaosVfs`] may inject before that
/// kind goes quiet. Budgets are what make chaos runs terminate: every
/// retry loop in the harness drains at least one budget unit per
/// failure, so convergence is guaranteed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FsFaultBudget {
    /// Injectable `ENOSPC` failures.
    pub enospc: u32,
    /// Injectable short writes.
    pub short_write: u32,
    /// Injectable fsync failures.
    pub fsync_fail: u32,
    /// Injectable silent torn renames.
    pub torn_rename: u32,
    /// Injectable read-side bit flips.
    pub bit_rot: u32,
    /// Injectable rename failures.
    pub rename_fail: u32,
}

impl FsFaultBudget {
    fn get(&self, kind: FaultKind) -> u32 {
        match kind {
            FaultKind::Enospc => self.enospc,
            FaultKind::ShortWrite => self.short_write,
            FaultKind::FsyncFail => self.fsync_fail,
            FaultKind::TornRename => self.torn_rename,
            FaultKind::BitRot => self.bit_rot,
            FaultKind::RenameFail => self.rename_fail,
        }
    }

    /// Total faults this budget may still inject.
    pub fn total(&self) -> u64 {
        FaultKind::ALL.iter().map(|&k| self.get(k) as u64).sum()
    }
}

/// Seed + probability + budgets for a [`ChaosVfs`].
#[derive(Clone, Copy, Debug)]
pub struct ChaosFsConfig {
    /// Fault PRNG seed; same seed, same fault schedule.
    pub seed: u64,
    /// Probability that an eligible operation draws a fault, in [0, 1].
    pub fault_rate: f64,
    /// Per-kind caps.
    pub budget: FsFaultBudget,
}

struct ChaosFsState {
    rng: u64,
    remaining: [u32; 6],
    injected: [u64; 6],
    ops: u64,
    quiesced: bool,
    log: Vec<String>,
}

/// A seeded fault-injecting [`VfsBackend`]. Clones share one state, so
/// a clone kept by the harness observes (and can quiesce) the injector
/// it handed to the system under test.
#[derive(Clone)]
pub struct ChaosVfs {
    fault_rate: f64,
    state: Arc<Mutex<ChaosFsState>>,
}

impl ChaosVfs {
    /// Build an injector from a seed, rate, and budget.
    pub fn new(cfg: ChaosFsConfig) -> ChaosVfs {
        let remaining = std::array::from_fn(|i| cfg.budget.get(FaultKind::ALL[i]));
        ChaosVfs {
            fault_rate: cfg.fault_rate.clamp(0.0, 1.0),
            state: Arc::new(Mutex::new(ChaosFsState {
                rng: cfg.seed,
                remaining,
                injected: [0; 6],
                ops: 0,
                quiesced: false,
                log: Vec::new(),
            })),
        }
    }

    /// A [`Vfs`] handle over this injector (the harness keeps `self` as
    /// the control/observation side).
    pub fn vfs(&self) -> Vfs {
        Vfs::new(self.clone())
    }

    /// Stop injecting; every later operation behaves like [`RealVfs`].
    /// Budgets and counters are preserved for the final report.
    pub fn quiesce(&self) {
        self.lock().quiesced = true;
    }

    /// Faults injected so far of `kind`.
    pub fn injected(&self, kind: FaultKind) -> u64 {
        let idx = FaultKind::ALL.iter().position(|&k| k == kind).unwrap();
        self.lock().injected[idx]
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        self.lock().injected.iter().sum()
    }

    /// The deterministic fault log: one line per injected fault,
    /// `op<N> <kind> <file-name>`.
    pub fn log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosFsState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Count an operation and decide whether to fault it. `candidates`
    /// are the kinds this operation can express; kinds whose budget is
    /// exhausted are skipped.
    fn draw(&self, candidates: &[FaultKind], path: &Path) -> Option<FaultKind> {
        let mut st = self.lock();
        st.ops += 1;
        if st.quiesced {
            return None;
        }
        let eligible: Vec<usize> = candidates
            .iter()
            .map(|&k| FaultKind::ALL.iter().position(|&x| x == k).unwrap())
            .filter(|&i| st.remaining[i] > 0)
            .collect();
        if eligible.is_empty() {
            return None;
        }
        let r = splitmix64(&mut st.rng);
        let p = (r >> 11) as f64 / (1u64 << 53) as f64;
        if p >= self.fault_rate {
            return None;
        }
        let pick = eligible[(splitmix64(&mut st.rng) % eligible.len() as u64) as usize];
        st.remaining[pick] -= 1;
        st.injected[pick] += 1;
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let line = format!("op{} {} {}", st.ops, FaultKind::ALL[pick].as_str(), name);
        st.log.push(line);
        Some(FaultKind::ALL[pick])
    }

    /// An auxiliary deterministic draw (bit positions, cut points).
    fn aux(&self) -> u64 {
        splitmix64(&mut self.lock().rng)
    }
}

fn enospc(path: &Path) -> io::Error {
    io::Error::new(
        io::Error::from_raw_os_error(28).kind(),
        format!("chaos: no space left on device writing {}", path.display()),
    )
}

impl VfsBackend for ChaosVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut data = std::fs::read(path)?;
        if self.draw(&[FaultKind::BitRot], path).is_some() && !data.is_empty() {
            let bit = self.aux() % (data.len() as u64 * 8);
            data[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        Ok(data)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use FaultKind::*;
        match self.draw(&[Enospc, ShortWrite, FsyncFail, TornRename], path) {
            None => fsutil::write_atomic(path, data),
            Some(Enospc) => Err(enospc(path)),
            Some(ShortWrite) => {
                // Half the bytes reach the temp file, then the device
                // gives up; the destination is never touched.
                let cut = data.len() / 2;
                std::fs::write(fsutil::tmp_sibling(path), &data[..cut])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "chaos: short write ({cut}/{} bytes) to {}",
                        data.len(),
                        path.display()
                    ),
                ))
            }
            Some(FsyncFail) => {
                // All bytes reach the temp file but the fsync fails, so
                // the rename must not run.
                std::fs::write(fsutil::tmp_sibling(path), data)?;
                Err(io::Error::other(format!(
                    "chaos: fsync failed for {}",
                    path.display()
                )))
            }
            Some(TornRename) => {
                // Silent corruption: report success while the
                // destination holds only a prefix (a crash between
                // rename and directory fsync). Cut in the back quarter
                // so headers survive and only checksums can object.
                let cut = if data.len() > 4 {
                    data.len() - 1 - (self.aux() % (data.len() as u64 / 4)) as usize
                } else {
                    0
                };
                std::fs::write(path, &data[..cut])?;
                Ok(())
            }
            Some(BitRot) | Some(RenameFail) => unreachable!("not write candidates"),
        }
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        use FaultKind::*;
        match self.draw(&[Enospc, ShortWrite, FsyncFail], path) {
            None => real_append(path, data),
            Some(Enospc) => Err(enospc(path)),
            Some(ShortWrite) => {
                // Half the record reaches the file before the device
                // gives up: the journal now ends in a torn frame the
                // reader must detect (CRC) and discard.
                let cut = data.len() / 2;
                real_append(path, &data[..cut])?;
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    format!(
                        "chaos: short append ({cut}/{} bytes) to {}",
                        data.len(),
                        path.display()
                    ),
                ))
            }
            Some(FsyncFail) => {
                // Every byte landed but the fsync failed: the caller
                // must treat the record as unacknowledged even though a
                // post-crash reader may see it whole. Idempotent replay
                // (LSN dedupe) is what makes this safe.
                real_append(path, data)?;
                Err(io::Error::other(format!(
                    "chaos: fsync failed appending to {}",
                    path.display()
                )))
            }
            Some(TornRename) | Some(BitRot) | Some(RenameFail) => {
                unreachable!("not append candidates")
            }
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        if self.draw(&[FaultKind::RenameFail], from).is_some() {
            return Err(io::Error::other(format!(
                "chaos: rename {} -> {} failed",
                from.display(),
                to.display()
            )));
        }
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("bdrmap-vfs-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn chaos(seed: u64, rate: f64, budget: FsFaultBudget) -> ChaosVfs {
        ChaosVfs::new(ChaosFsConfig {
            seed,
            fault_rate: rate,
            budget,
        })
    }

    #[test]
    fn real_vfs_round_trips() {
        let dir = tmp_dir("real");
        let vfs = Vfs::real();
        let p = dir.join("a.bin");
        vfs.write_atomic(&p, b"payload").unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"payload");
        let q = dir.join("b.bin");
        vfs.rename(&p, &q).unwrap();
        assert_eq!(vfs.read(&q).unwrap(), b"payload");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn same_seed_same_fault_schedule() {
        let dir = tmp_dir("seed");
        let budget = FsFaultBudget {
            enospc: 2,
            short_write: 2,
            fsync_fail: 2,
            torn_rename: 2,
            ..Default::default()
        };
        let mut logs = Vec::new();
        for round in 0..2 {
            let c = chaos(99, 0.5, budget);
            let vfs = c.vfs();
            for i in 0..32 {
                let p = dir.join(format!("r{round}-f{i}.bin"));
                let _ = vfs.write_atomic(&p, b"0123456789abcdef0123456789abcdef");
            }
            // Normalise: drop the round-specific file names, keep op
            // index + kind (the schedule itself).
            logs.push(
                c.log()
                    .iter()
                    .map(|l| l.split(' ').take(2).collect::<Vec<_>>().join(" "))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(c.injected_total(), 8, "budget fully drained");
        }
        assert_eq!(logs[0], logs[1], "same seed must replay identically");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_exhaustion_goes_clean() {
        let dir = tmp_dir("budget");
        let c = chaos(
            7,
            1.0,
            FsFaultBudget {
                enospc: 3,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let mut failures = 0;
        for i in 0..10 {
            let p = dir.join(format!("f{i}.bin"));
            if vfs.write_atomic(&p, b"x").is_err() {
                failures += 1;
            } else {
                assert_eq!(std::fs::read(&p).unwrap(), b"x");
            }
        }
        assert_eq!(failures, 3, "rate 1.0 burns the whole budget first");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_and_short_write_leave_destination_untouched() {
        let dir = tmp_dir("writefaults");
        for (budget, tag) in [
            (
                FsFaultBudget {
                    enospc: 1,
                    ..Default::default()
                },
                "enospc",
            ),
            (
                FsFaultBudget {
                    short_write: 1,
                    ..Default::default()
                },
                "short",
            ),
            (
                FsFaultBudget {
                    fsync_fail: 1,
                    ..Default::default()
                },
                "fsync",
            ),
        ] {
            let c = chaos(1, 1.0, budget);
            let vfs = c.vfs();
            let p = dir.join(format!("{tag}.bin"));
            vfs.write_atomic(&p, b"old").unwrap_err();
            assert!(!p.exists(), "{tag}: destination must not appear");
            // After the budget drains, the same write succeeds.
            vfs.write_atomic(&p, b"new").unwrap();
            assert_eq!(std::fs::read(&p).unwrap(), b"new");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_rename_is_silent_and_truncated() {
        let dir = tmp_dir("torn");
        let c = chaos(
            3,
            1.0,
            FsFaultBudget {
                torn_rename: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let p = dir.join("t.bin");
        let data = vec![0xAAu8; 256];
        vfs.write_atomic(&p, &data).unwrap(); // lies: reports success
        let on_disk = std::fs::read(&p).unwrap();
        assert!(on_disk.len() < data.len(), "must be truncated");
        assert_eq!(on_disk, data[..on_disk.len()], "must be a prefix");
        assert_eq!(c.injected(FaultKind::TornRename), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_rot_flips_exactly_one_bit() {
        let dir = tmp_dir("bitrot");
        let p = dir.join("r.bin");
        let data = vec![0u8; 64];
        std::fs::write(&p, &data).unwrap();
        let c = chaos(
            5,
            1.0,
            FsFaultBudget {
                bit_rot: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let rotten = vfs.read(&p).unwrap();
        let flipped: u32 = rotten.iter().map(|b| b.count_ones()).sum();
        assert_eq!(flipped, 1, "exactly one bit flips");
        // The file itself is untouched; a second read (budget spent) is
        // clean.
        assert_eq!(vfs.read(&p).unwrap(), data);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rename_fail_keeps_source() {
        let dir = tmp_dir("renamefail");
        let p = dir.join("src.bin");
        std::fs::write(&p, b"keep").unwrap();
        let c = chaos(
            9,
            1.0,
            FsFaultBudget {
                rename_fail: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let q = dir.join("dst.bin");
        vfs.rename(&p, &q).unwrap_err();
        assert!(p.exists() && !q.exists());
        vfs.rename(&p, &q).unwrap();
        assert!(!p.exists() && q.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn real_append_accumulates() {
        let dir = tmp_dir("append");
        let vfs = Vfs::real();
        let p = dir.join("log.wal");
        vfs.append(&p, b"one").unwrap();
        vfs.append(&p, b"two").unwrap();
        assert_eq!(vfs.read(&p).unwrap(), b"onetwo");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn short_append_leaves_torn_suffix() {
        let dir = tmp_dir("shortappend");
        let c = chaos(
            13,
            1.0,
            FsFaultBudget {
                short_write: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let p = dir.join("log.wal");
        vfs.append(&p, b"head").unwrap_err();
        // Half the record landed: the reader's framing must catch this.
        assert_eq!(std::fs::read(&p).unwrap(), b"he");
        // Budget spent, the next append is clean and goes after the tear.
        vfs.append(&p, b"tail").unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"hetail");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fsync_fail_append_lands_bytes_but_reports_failure() {
        let dir = tmp_dir("fsyncappend");
        let c = chaos(
            15,
            1.0,
            FsFaultBudget {
                fsync_fail: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let p = dir.join("log.wal");
        vfs.append(&p, b"ghost").unwrap_err();
        // The unacknowledged record is nonetheless on disk whole.
        assert_eq!(std::fs::read(&p).unwrap(), b"ghost");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn enospc_append_writes_nothing() {
        let dir = tmp_dir("enospcappend");
        let c = chaos(
            17,
            1.0,
            FsFaultBudget {
                enospc: 1,
                ..Default::default()
            },
        );
        let vfs = c.vfs();
        let p = dir.join("log.wal");
        vfs.append(&p, b"never").unwrap_err();
        assert!(!p.exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quiesce_stops_injection() {
        let dir = tmp_dir("quiesce");
        let c = chaos(
            11,
            1.0,
            FsFaultBudget {
                enospc: 100,
                ..Default::default()
            },
        );
        c.quiesce();
        let vfs = c.vfs();
        for i in 0..5 {
            vfs.write_atomic(&dir.join(format!("q{i}.bin")), b"ok")
                .unwrap();
        }
        assert_eq!(c.injected_total(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
