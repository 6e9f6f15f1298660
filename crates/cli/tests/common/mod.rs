//! Scratch files for the CLI integration tests.
//!
//! These tests spawn `pmtbr-cli` children that read netlists while
//! sibling tests, and other test processes, are running. Two rules keep
//! them from reading each other's half-written files:
//!
//! - every process gets its own directory ([`scratch_dir`]), so two
//!   concurrent test binaries never share a path;
//! - every file is written to a temporary name and renamed into place
//!   ([`write_atomic`]), so a reader sees either no file or the whole
//!   file, never a truncated one.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// `<temp>/<name>-<pid>`, created if missing.
pub fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Writes `text` to `path` through a uniquely named sibling and a
/// rename, and returns `path`.
pub fn write_atomic(path: &Path, text: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let tmp = path.with_extension(format!("tmp{}", NEXT.fetch_add(1, Ordering::Relaxed)));
    std::fs::write(&tmp, text).expect("write scratch file");
    std::fs::rename(&tmp, path).expect("rename scratch file into place");
    path.to_path_buf()
}
