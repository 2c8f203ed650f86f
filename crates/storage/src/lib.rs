//! Durable storage substrate for the TIB-PRE workspace: CRC-framed
//! write-ahead logs and generational snapshots.
//!
//! The paper's PHR scenario assumes the semi-trusted server keeps encrypted
//! records and audit trails *long-term*; this crate supplies the recoverable
//! on-disk layer underneath the application stores.  It is deliberately
//! byte-oriented and application-agnostic — `tibpre-phr` defines what goes
//! inside a frame, this crate defines what makes a frame *committed*:
//!
//! * [`frame`] — the length-prefixed, CRC-32-checksummed frame envelope and
//!   the scan that stops at the first torn or corrupt frame,
//! * [`wal`] — the append-only segment writer with group-commit flushing and
//!   a configurable [`FsyncPolicy`],
//! * [`snapshot`] — atomically-written, generational full-state snapshots
//!   in the indexed `TBS2` layout, read into memory behind a validated
//!   trailer (plus a loader for the legacy monolithic `TBS1` layout), with
//!   fallback to older generations,
//! * [`crc`] — CRC-32/ISO-HDLC,
//! * [`TempDir`] — a dependency-free temporary directory for the crash and
//!   recovery test harnesses (this workspace is built offline and has no
//!   `tempfile` crate).
//!
//! The recovery contract, which `tests/tests/recovery_props.rs` pins down
//! property-by-property: replaying `newest valid snapshot + WAL tail` after a
//! kill at *any* byte offset reconstructs exactly the longest committed
//! prefix of operations — no panic, no partial frame applied, no frame after
//! a corruption ever resurrected.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod crc;
pub mod frame;
pub mod replication;
pub mod segment;
pub mod snapshot;
pub mod wal;

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

pub use frame::{FrameDefect, FrameScan};
pub use replication::{ChunkOutcome, CommitNotifier, ReplicationLog};
pub use segment::{SegmentedWal, SegmentedWalScan};
pub use snapshot::{IndexedSnapshot, Snapshot};
pub use wal::WalWriter;

/// When the write-ahead log fsyncs.
///
/// Group commits always reach the OS page cache in one `write`; the policy
/// decides how often the file is additionally forced to stable storage.  The
/// trade-off is the classic one: `Always` survives power loss at commit
/// granularity, `Never` survives process crashes (the kernel still holds the
/// pages) but not power loss, `EveryN` bounds the power-loss window to `n`
/// commits.  `TIBPRE_FSYNC` selects the policy at deployment time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` on every commit (the durable default).
    Always,
    /// `fsync` once per `n` commits.
    EveryN(u32),
    /// Never `fsync`; the OS flushes on its own schedule.
    Never,
}

impl FsyncPolicy {
    /// Reads the policy from the `TIBPRE_FSYNC` environment variable:
    /// `always`, `never`, or `every=N`.  Unset or unparsable values fall
    /// back to `Always` — a typo must degrade performance, not durability.
    pub fn from_env() -> Self {
        match std::env::var("TIBPRE_FSYNC") {
            Ok(spec) => Self::parse(&spec).unwrap_or(FsyncPolicy::Always),
            Err(_) => FsyncPolicy::Always,
        }
    }

    /// Parses a policy specification (`always` / `never` / `every=N`).
    pub fn parse(spec: &str) -> Option<Self> {
        let spec = spec.trim().to_ascii_lowercase();
        match spec.as_str() {
            "always" => Some(FsyncPolicy::Always),
            "never" => Some(FsyncPolicy::Never),
            other => {
                let n = other.strip_prefix("every=")?.parse::<u32>().ok()?;
                Some(FsyncPolicy::EveryN(n.max(1)))
            }
        }
    }
}

/// Errors produced by the storage layer.
#[derive(Debug)]
pub enum StorageError {
    /// An operating-system I/O failure.
    Io(io::Error),
    /// A file's contents failed validation (checksum, magic, field bounds).
    Corrupt(&'static str),
    /// A payload failed to decode (truncation, bad tag, trailing bytes).
    Decode(tibpre_wire::DecodeError),
    /// Another process holds the advisory lock on the store.
    Locked(PathBuf),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage i/o error: {e}"),
            StorageError::Corrupt(why) => write!(f, "corrupt storage file: {why}"),
            StorageError::Decode(e) => write!(f, "corrupt storage payload: {e}"),
            StorageError::Locked(path) => write!(
                f,
                "another process holds the lock {} — refusing to open the same store twice",
                path.display()
            ),
        }
    }
}

/// An advisory exclusive lock guarding a store against concurrent opens.
///
/// Two processes opening the same durable store would be fatal: the second
/// open truncates WAL tails the first is still appending to, and both would
/// write from independent offsets.  The lock is an OS advisory file lock
/// (`flock`-style via [`std::fs::File::try_lock`]), so it is released
/// automatically when the process exits — including `SIGKILL`, which is
/// exactly the crash scenario the WAL exists for; a stale-lockfile scheme
/// would break crash recovery.
#[derive(Debug)]
pub struct DirLock {
    // Held only for the lock's lifetime; the OS releases it on close.
    _file: std::fs::File,
    path: PathBuf,
}

impl DirLock {
    /// Acquires the lock file at `path` (created if missing).  Fails with
    /// [`StorageError::Locked`] when another live process holds it.
    pub fn acquire(path: &Path) -> Result<Self, StorageError> {
        let file = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        match file.try_lock() {
            Ok(()) => Ok(DirLock {
                _file: file,
                path: path.to_path_buf(),
            }),
            Err(std::fs::TryLockError::WouldBlock) => Err(StorageError::Locked(path.to_path_buf())),
            Err(std::fs::TryLockError::Error(e)) => Err(StorageError::Io(e)),
        }
    }

    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Replaces the file at `path` (inside `dir`) with `bytes` durably: write a
/// temp file beside it, fsync it, rename it over `path`, fsync `dir` — a
/// crash leaves the old contents or the new ones, never a mix, and never
/// loses the rename.
pub fn replace_file(dir: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    std::fs::rename(&tmp, path)?;
    std::fs::File::open(dir)?.sync_all()
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<tibpre_wire::DecodeError> for StorageError {
    fn from(e: tibpre_wire::DecodeError) -> Self {
        StorageError::Decode(e)
    }
}

/// Monotonic discriminator for [`TempDir`] names within one process.
static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A uniquely-named temporary directory, removed on drop.
///
/// The offline build has no `tempfile` crate; the recovery tests and the
/// durable `store_concurrency` mode need scratch directories, so this
/// crate carries the ~30 lines itself.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates `TMPDIR/tibpre-<tag>-<pid>-<n>`.
    pub fn new(tag: &str) -> io::Result<Self> {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("tibpre-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// The directory's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Unit-test helper: a tempdir tagged with the test name.
#[cfg(test)]
pub(crate) fn test_dir(tag: &str) -> TempDir {
    TempDir::new(tag).expect("create temp dir")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replace_file_swaps_whole_contents() {
        let dir = test_dir("replace-file");
        let path = dir.path().join("log");
        replace_file(dir.path(), &path, b"first, longer contents").unwrap();
        replace_file(dir.path(), &path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let names: Vec<_> = std::fs::read_dir(dir.path()).unwrap().collect();
        assert_eq!(names.len(), 1, "no temp file left behind");
    }

    #[test]
    fn fsync_policy_parsing() {
        assert_eq!(FsyncPolicy::parse("always"), Some(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse(" Never "), Some(FsyncPolicy::Never));
        assert_eq!(FsyncPolicy::parse("every=8"), Some(FsyncPolicy::EveryN(8)));
        assert_eq!(FsyncPolicy::parse("every=0"), Some(FsyncPolicy::EveryN(1)));
        assert_eq!(FsyncPolicy::parse("every=x"), None);
        assert_eq!(FsyncPolicy::parse("sometimes"), None);
    }

    #[test]
    fn temp_dirs_are_unique_and_cleaned_up() {
        let a = test_dir("lib");
        let b = test_dir("lib");
        assert_ne!(a.path(), b.path());
        let kept = a.path().to_path_buf();
        std::fs::write(kept.join("f"), b"x").unwrap();
        drop(a);
        assert!(!kept.exists());
        assert!(b.path().exists());
    }

    #[test]
    fn dir_lock_excludes_a_second_holder_until_released() {
        let dir = test_dir("lock");
        let path = dir.path().join("LOCK");
        let lock = DirLock::acquire(&path).unwrap();
        assert_eq!(lock.path(), path);
        assert!(matches!(
            DirLock::acquire(&path),
            Err(StorageError::Locked(_))
        ));
        drop(lock);
        DirLock::acquire(&path).unwrap();
    }

    #[test]
    fn storage_error_display() {
        let e = StorageError::Corrupt("bad frame");
        assert!(e.to_string().contains("bad frame"));
        let e: StorageError = io::Error::other("disk on fire").into();
        assert!(e.to_string().contains("disk on fire"));
    }
}
