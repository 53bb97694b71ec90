//! Artifact files: the atomic writer behind the chaos harnesses' CSV
//! log and `--json` reports.

/// Write a rendered artifact atomically (write-then-rename): a crashed
/// or interrupted run never leaves a truncated CSV/JSON behind for the
/// plotting pipeline to trip over.
pub fn write_artifact(path: &std::path::Path, contents: &str) -> std::io::Result<()> {
    write_artifact_with(path, contents, &bdrmap_types::Vfs::real())
}

/// [`write_artifact`] through an explicit filesystem seam, so the chaos
/// harness can inject write faults under artifact emission. Errors
/// carry the offending path.
pub fn write_artifact_with(
    path: &std::path::Path,
    contents: &str,
    vfs: &bdrmap_types::Vfs,
) -> std::io::Result<()> {
    vfs.write_atomic(path, contents.as_bytes())
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn artifacts_are_written_atomically() {
        let dir = std::env::temp_dir().join("bdrmap-artifacts-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig.csv");
        write_artifact(&path, "a,b\n1,2\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        // Overwrite goes through the same rename path.
        write_artifact(&path, "a,b\n3,4\n").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n3,4\n");
        std::fs::remove_file(&path).ok();
    }
}
