//! The durable-file layer: locks, line logs and atomic writes.
//!
//! Every file a crash must leave intact is made durable here:
//! - **Line logs** — the campaign WAL, the result journals
//!   (`done.jsonl`, `--journal`) and the split store's
//!   `intervals.jsonl` — are newline-framed, and each line format
//!   validates itself (CRC, spec hash, schema). Shared writers append
//!   with [`append_line`]/[`append_line_durable`] under a blocking lock,
//!   the WAL's exclusive holder with [`LockedFile::append_line`]; both
//!   end a torn final line before they write, so a kill's fragment
//!   cannot swallow the next record. Whether a line is synced is the
//!   caller's choice. [`replay_lines`] is the one reader.
//! - **Whole files** — snapshot and boundary frames, the split
//!   manifest, the finalized `journal.jsonl`, flight records, the
//!   Chrome trace and the address files — go through [`write_atomic`],
//!   so a reader sees the old file or the new one, never a torn mix.
//!
//! Locks are advisory `flock(2)` locks through a raw FFI binding
//! (std-only, no libc crate), matching the `signal(2)` idiom in
//! [`signals`](crate::signals). They vanish when the holder dies, so a
//! SIGKILL'd controller never leaves a stale lock. Two grades:
//! - [`LockedFile::try_exclusive`] — non-blocking; a held lock is the
//!   typed [`SimError::Locked`], so a second controller on the same
//!   campaign directory fails fast instead of corrupting state;
//! - [`lock_exclusive_blocking`] — blocking; used around single-line
//!   appends, where many workers serialize briefly instead of failing.

use crate::error::SimError;
use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
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

/// Hands each non-blank line of the log at `path` to `line` with its
/// 1-based number, in file order. A line that is not UTF-8 arrives as
/// `None`, one corrupt line like any other; a torn final line arrives
/// as it is, for its format's check to reject. A missing file is empty.
///
/// # Errors
///
/// I/O failures other than the file not existing.
pub fn replay_lines(path: &Path, mut line: impl FnMut(usize, Option<&str>)) -> std::io::Result<()> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
        Err(e) => return Err(e),
    };
    for (n, raw) in bytes.split(|&b| b == b'\n').enumerate() {
        match std::str::from_utf8(raw).map(str::trim) {
            Ok("") => {}
            Ok(text) => line(n + 1, Some(text)),
            Err(_) => line(n + 1, None),
        }
    }
    Ok(())
}

/// Appends `line` plus a newline to `path` under the blocking lock,
/// creating the file and its parent directory on first use, after
/// ending a torn final line. The check reads the last byte through the
/// lock-holding handle, so no other appender slips in between. No
/// fsync: a process crash keeps the line, a power loss may not — see
/// [`append_line_durable`].
pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    append_shared(path, line, false)
}

/// [`append_line`], then `fsync` the file (and, for the line that
/// created it, its directory) before returning, so the line survives a
/// power loss. For records that a later durable claim rests on: the
/// campaign controller appends a result to `done.jsonl` this way before
/// its WAL says the job is Done.
pub fn append_line_durable(path: &Path, line: &str) -> std::io::Result<()> {
    append_shared(path, line, true)
}

fn append_shared(path: &Path, line: &str, durable: bool) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .read(true)
        .append(true)
        .open(path)?;
    lock_exclusive_blocking(&file)?;
    append_record(&mut file, path, &mut Tail::Unchecked, line, durable)
}

/// What an appending handle knows about the end of its log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tail {
    /// Not looked at yet, or a write failed and may have torn it.
    Unchecked,
    /// Was empty: the next synced line also syncs the directory.
    NewFile,
    /// Ends in a newline.
    Ended,
}

/// The one append: ends a torn final line if `tail` is unchecked, then
/// writes `line` and its newline as one write — with `O_APPEND` it
/// lands at the end, so a kill leaves at most one partial line — and
/// syncs it when `durable`.
fn append_record(
    file: &mut File,
    path: &Path,
    tail: &mut Tail,
    line: &str,
    durable: bool,
) -> std::io::Result<()> {
    let mut bytes = Vec::with_capacity(line.len() + 2);
    if *tail == Tail::Unchecked {
        *tail = Tail::NewFile;
        if file.seek(SeekFrom::End(0))? > 0 {
            *tail = Tail::Ended;
            let mut last = [0u8; 1];
            file.seek(SeekFrom::End(-1))?;
            file.read_exact(&mut last)?;
            if last[0] != b'\n' {
                bytes.push(b'\n');
            }
        }
    }
    bytes.extend_from_slice(line.as_bytes());
    bytes.push(b'\n');
    let written = file.write_all(&bytes).and_then(|()| {
        if durable {
            file.sync_data()?;
            if *tail == Tail::NewFile {
                sync_parent_dir(path);
                *tail = Tail::Ended;
            }
        }
        Ok(())
    });
    if written.is_err() {
        *tail = Tail::Unchecked;
    }
    written
}

/// Writes `bytes` to `path` atomically: creates the parent directory,
/// writes `<file name>.tmp`, `fdatasync`s it (the file is new, so that
/// flushes its size too) and renames it over `path`.
///
/// # Errors
///
/// The first I/O failure; the caller names the file in its own error.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent)?;
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let mut file = File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_data()?;
    drop(file);
    std::fs::rename(&tmp, path)
}

/// Fsyncs `path`'s parent directory so a freshly created file's
/// directory entry survives a crash (a synced file in an unsynced
/// directory can vanish wholesale on some filesystems). Best-effort:
/// directories aren't openable for sync on every platform.
fn sync_parent_dir(path: &Path) {
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
    tail: Tail,
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
        let tail = Tail::Unchecked;
        match try_lock_exclusive(&file) {
            Ok(true) => Ok(LockedFile { file, path, tail }),
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

    /// Appends `line` plus a newline through the lock-holding handle,
    /// `fdatasync`ing it when `durable` (which also flushes the unsynced
    /// lines before it). The first append ends a torn final line a
    /// killed previous holder left, as [`append_line`] does.
    ///
    /// # Errors
    ///
    /// I/O failures reading the tail, writing or syncing.
    pub fn append_line(&mut self, line: &str, durable: bool) -> std::io::Result<()> {
        append_record(&mut self.file, &self.path, &mut self.tail, line, durable)
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

    /// A self-checking test record: a torn prefix of one never decodes.
    fn record(i: usize) -> String {
        format!("record {i:03} {}", "x".repeat(3 + i % 7))
    }

    fn decode(line: &str) -> Option<usize> {
        let i = line.split(' ').nth(1)?.parse().ok()?;
        (line == record(i)).then_some(i)
    }

    /// The indices [`replay_lines`] decodes from `path`, in order.
    fn replayed(path: &Path) -> Vec<usize> {
        let mut seen = Vec::new();
        replay_lines(path, |_, line| seen.extend(line.and_then(decode))).expect("replay");
        seen
    }

    /// The log's one property: whatever byte a kill tears the file at,
    /// replay returns every record whose text survived whole, then every
    /// record appended afterwards, in order — through the shared
    /// appenders and through a `LockedFile` alike, which also leave the
    /// same bytes behind. A line that is not UTF-8 drops alone.
    #[test]
    fn appends_after_any_tear_replay_the_intact_prefix_then_every_new_line() {
        const N: usize = 12;
        const M: usize = 3;
        let dir = scratch("torn-prop");
        let mut full = Vec::new();
        let mut text_ends = Vec::new();
        for i in 0..N {
            full.extend_from_slice(record(i).as_bytes());
            text_ends.push(full.len());
            full.push(b'\n');
        }
        // Every byte of the last two lines, then seeded random offsets.
        let mut cuts: Vec<usize> = (text_ends[N - 3] + 1..=full.len()).collect();
        let mut state: u64 = 0x5EED_10C4_7A11_0001;
        for _ in 0..48 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            cuts.push((state >> 33) as usize % (full.len() + 1));
        }
        for cut in cuts {
            let intact = text_ends.iter().filter(|&&end| end <= cut).count();
            let want: Vec<usize> = (0..intact).chain(N..N + M).collect();
            let (shared, locked) = (dir.join("shared.log"), dir.join("locked.log"));
            for path in [&shared, &locked] {
                std::fs::write(path, &full[..cut]).expect("torn log");
            }
            for i in N..N + M {
                if i % 2 == 0 {
                    append_line(&shared, &record(i)).expect("shared append");
                } else {
                    append_line_durable(&shared, &record(i)).expect("durable append");
                }
            }
            let mut file = LockedFile::try_exclusive(&locked).expect("lock");
            for i in N..N + M {
                file.append_line(&record(i), i % 2 == 1)
                    .expect("locked append");
            }
            drop(file);
            assert_eq!(replayed(&shared), want, "shared path, cut at byte {cut}");
            assert_eq!(replayed(&locked), want, "locked path, cut at byte {cut}");
            assert_eq!(
                std::fs::read(&shared).expect("read"),
                std::fs::read(&locked).expect("read"),
                "cut at byte {cut}: both paths write the same bytes"
            );
        }
        // A line that is not UTF-8 is one corrupt line: replay hands it
        // on as `None` under its own number and goes on to its
        // neighbours; blank lines are skipped and a missing log is empty.
        let path = dir.join("log");
        let mut bytes = format!("{}\n\n", record(0)).into_bytes();
        bytes.extend_from_slice(b"record 001 \xFFxxx\n");
        bytes.extend_from_slice(format!("{}\n", record(2)).as_bytes());
        std::fs::write(&path, bytes).expect("write");
        let mut lines = Vec::new();
        replay_lines(&path, |n, line| lines.push((n, line.map(str::to_owned)))).expect("replay");
        assert_eq!(
            lines,
            [(1, Some(record(0))), (3, None), (4, Some(record(2)))]
        );
        let mut file = LockedFile::try_exclusive(&path).expect("lock");
        file.append_line(&record(3), true).expect("append");
        drop(file);
        assert_eq!(replayed(&path), [0, 2, 3]);
        replay_lines(&dir.join("missing"), |_, _| {
            panic!("a missing log has no lines")
        })
        .expect("a missing log is empty");
        std::fs::remove_dir_all(&dir).ok();
    }
}
