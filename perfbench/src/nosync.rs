//! A filesystem seam with tmpfs semantics for the store and journal
//! writers: files land in the checkout's page cache with the same
//! write-to-sibling-then-rename and append steps as the real backend,
//! but no fsync. The benchmark may only write inside its checkout,
//! which sits on a shared disk; skipping fsync keeps that disk's flush
//! latency out of every number, as a tmpfs mount would.

use bdrmap_types::{Vfs, VfsBackend};
use std::io::{self, Write};
use std::path::Path;

struct NoSync;

impl VfsBackend for NoSync {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write_atomic(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let mut tmp = path.as_os_str().to_os_string();
        tmp.push(".tmp");
        std::fs::write(&tmp, data)?;
        std::fs::rename(&tmp, path)
    }

    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?
            .write_all(data)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        std::fs::create_dir_all(path)
    }
}

pub fn vfs() -> Vfs {
    Vfs::new(NoSync)
}
