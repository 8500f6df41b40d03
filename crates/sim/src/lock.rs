//! Advisory file locking for campaign artifacts.
//!
//! Two controllers pointed at the same `results/` directory must not
//! interleave writes into one WAL or journal. Std-only (no libc crate):
//! a raw `flock(2)` FFI binding, matching the `signal(2)` idiom in
//! [`signals`](crate::signals). Locks are advisory — every writer in
//! this codebase takes them, external editors are on their own — and
//! they vanish automatically when the holding process dies, so a
//! SIGKILL'd controller never leaves a stale lock behind.
//!
//! Two grades:
//! - [`LockedFile::try_exclusive`] — non-blocking; a held lock is the
//!   typed [`SimError::Locked`], so a second controller on the same
//!   campaign directory fails fast instead of corrupting state;
//! - [`lock_exclusive_blocking`] — blocking; used around single-line
//!   journal appends, where many workers serialize briefly instead of
//!   failing.

use crate::error::SimError;
use std::fs::File;
use std::os::unix::io::AsRawFd as _;
use std::path::{Path, PathBuf};

const LOCK_EX: i32 = 2;
const LOCK_NB: i32 = 4;

extern "C" {
    // POSIX flock(2): advisory whole-file locks tied to the open file
    // description — released on close or process death.
    fn flock(fd: i32, operation: i32) -> i32;
}

/// Takes an exclusive lock, blocking until it is granted. The lock lives
/// as long as the file handle.
pub fn lock_exclusive_blocking(file: &File) -> std::io::Result<()> {
    loop {
        if unsafe { flock(file.as_raw_fd(), LOCK_EX) } == 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        // EINTR: a signal landed mid-wait; retry like every blocking
        // syscall wrapper must.
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Appends `line` plus a newline to `path` under the blocking lock,
/// creating the file and its parent directory on first use. If a kill
/// mid-append left a partial final line, a newline ends it first, so the
/// fragment cannot swallow the new record. The check reads the last
/// byte through the lock-holding handle, so no other appender can slip
/// in between the check and the write. No fsync: a crash of the process
/// keeps the line, a power loss may not — see
/// [`append_line_durable`].
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    append(path, line, false)
}

/// [`append_line`], then `fsync` the file (and, for the line that
/// created it, its directory) before returning, so the line survives a
/// power loss. For records that a later durable claim rests on: the
/// campaign controller appends a result to `done.jsonl` this way before
/// its WAL says the job is Done.
pub fn append_line_durable(path: &Path, line: &str) -> std::io::Result<()> {
    append(path, line, true)
}

fn append(path: &Path, line: &str, durable: bool) -> std::io::Result<()> {
    use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    lock_exclusive_blocking(&file)?;
    let created = durable && file.metadata()?.len() == 0;
    let mut last = [0u8; 1];
    let torn = file.seek(SeekFrom::End(-1)).is_ok()
        && file.read_exact(&mut last).is_ok()
        && last[0] != b'\n';
    let mut bytes = Vec::with_capacity(line.len() + 2);
    if torn {
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    // One write: with O_APPEND it lands at the end whatever the read
    // position, so a kill leaves at most one partial line behind.
    file.write_all(&bytes)?;
    if durable {
        file.sync_data()?;
        if created {
            sync_parent_dir(path);
        }
    }
    Ok(())
}

/// Fsyncs `path`'s parent directory so a freshly created file's
/// directory entry survives a crash (a synced file in an unsynced
/// directory can vanish wholesale on some filesystems). Best-effort:
/// directories aren't openable for sync on every platform.
pub(crate) fn sync_parent_dir(path: &Path) {
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            dir.sync_all().ok();
        }
    }
}

/// Tries an exclusive lock without blocking. `Ok(false)` means another
/// process holds it.
fn try_lock_exclusive(file: &File) -> std::io::Result<bool> {
    if unsafe { flock(file.as_raw_fd(), LOCK_EX | LOCK_NB) } == 0 {
        return Ok(true);
    }
    let err = std::io::Error::last_os_error();
    if err.kind() == std::io::ErrorKind::WouldBlock {
        return Ok(false);
    }
    Err(err)
}

/// An exclusively flock'd file, held for the lifetime of the value.
/// Dropping it (or dying with it) releases the lock.
#[derive(Debug)]
pub struct LockedFile {
    file: File,
    path: PathBuf,
}

impl LockedFile {
    /// Opens (creating if needed) `path` and takes its exclusive lock
    /// without blocking.
    ///
    /// # Errors
    ///
    /// [`SimError::Locked`] when another process already holds the lock
    /// — the fail-fast signal that a second controller or worker is
    /// using the same campaign artifacts — or on genuine I/O failure.
    pub fn try_exclusive(path: impl Into<PathBuf>) -> Result<LockedFile, SimError> {
        let path = path.into();
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent).map_err(|e| SimError::Locked {
                    path: path.clone(),
                    detail: format!("mkdir failed: {e}"),
                })?;
            }
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)
            .map_err(|e| SimError::Locked {
                path: path.clone(),
                detail: format!("open failed: {e}"),
            })?;
        match try_lock_exclusive(&file) {
            Ok(true) => Ok(LockedFile { file, path }),
            Ok(false) => Err(SimError::Locked {
                path,
                detail: "held by another process (two controllers/workers on one \
                         campaign directory?)"
                    .to_string(),
            }),
            Err(e) => Err(SimError::Locked {
                path,
                detail: format!("flock failed: {e}"),
            }),
        }
    }

    /// The locked file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The open (locked) handle, for callers that also read or append
    /// through the lock-holding descriptor.
    pub fn file(&self) -> &File {
        &self.file
    }

    /// Mutable access to the locked handle (appending writers).
    pub fn file_mut(&mut self) -> &mut File {
        &mut self.file
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlpwin-lock-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    // flock contention is per open-file-description: a second *open* in
    // the same process conflicts just like one from another process, so
    // this covers the two-controller fail-fast path (the campaign chaos
    // suite additionally proves it across real processes).
    #[test]
    fn second_holder_fails_fast_with_a_typed_error_until_release() {
        let dir = scratch("contend");
        let path = dir.join("LOCK");
        let held = LockedFile::try_exclusive(&path).expect("first lock");
        match LockedFile::try_exclusive(&path) {
            Err(SimError::Locked { detail, .. }) => {
                assert!(detail.contains("another process"), "{detail}")
            }
            other => panic!("expected Locked, got {other:?}"),
        }
        drop(held);
        LockedFile::try_exclusive(&path).expect("released on drop");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lock_creates_parent_directories() {
        let dir = scratch("parents");
        let path = dir.join("nested").join("deeper").join("LOCK");
        let lock = LockedFile::try_exclusive(&path).expect("nested lock");
        assert!(lock.path().exists());
        drop(lock);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blocking_lock_grants_on_a_free_file() {
        let dir = scratch("blocking");
        let file = File::create(dir.join("f")).expect("create");
        lock_exclusive_blocking(&file).expect("uncontended blocking lock");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The durable append writes the same bytes as the plain one: it
    /// creates the file and its directories, and ends a torn tail
    /// before its own line. (What the sync buys — surviving a power
    /// cut — cannot be observed from inside the process.)
    #[test]
    fn durable_append_writes_what_the_plain_append_writes() {
        let dir = scratch("durable");
        let (plain, durable) = (dir.join("a").join("plain"), dir.join("b").join("durable"));
        for path in [&plain, &durable] {
            std::fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
            std::fs::write(path, b"torn").expect("torn tail");
        }
        append_line(&plain, "one").expect("plain append");
        append_line_durable(&durable, "one").expect("durable append");
        assert_eq!(
            std::fs::read(&plain).expect("read"),
            std::fs::read(&durable).expect("read")
        );
        let fresh = dir.join("c").join("fresh");
        append_line_durable(&fresh, "first").expect("creating append");
        assert_eq!(std::fs::read_to_string(&fresh).expect("read"), "first\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
