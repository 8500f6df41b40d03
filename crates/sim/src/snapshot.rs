//! Intra-run crash recovery: framed snapshot files with rotation.
//!
//! A [`SnapshotStore`] persists the byte images produced by
//! `Core::snapshot()` so a killed run resumes mid-flight instead of
//! repaying every cycle from zero. Files live under one directory
//! (conventionally [`DEFAULT_SNAPSHOT_DIR`]), are keyed by the campaign
//! journal's FNV-1a [`spec_hash`](crate::journal::spec_hash), and rotate
//! `keep` deep so one torn write never strands a run.
//!
//! Robustness rules mirror the journal's:
//! - every file is framed (magic, `SNAPSHOT_SCHEMA`, spec hash, phase,
//!   cycle, payload length) and CRC-32-guarded end to end;
//! - writes are atomic: temp file in the same directory, `fsync`, then
//!   rename — a kill mid-write leaves only a temp file nobody reads;
//! - a recoverable run saves on one background `SnapshotWriter`
//!   thread with at most one image in flight, so a crash loses at most
//!   that image and the resume starts from the one before it;
//! - a file that fails any check is *quarantined* (renamed with a
//!   `.corrupt` suffix) with a warning, and the previous rotation — or a
//!   fresh start — takes over; corruption is never fatal.

use crate::metrics;
use mlpwin_isa::snap::crc32;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Instant;

/// Counter of snapshot files quarantined as `*.corrupt` (failed CRC,
/// framing, or restore). With telemetry on, a fleet that starts eating
/// its own snapshots shows up here before anyone reads stderr.
pub const METRIC_SNAPSHOT_CORRUPT: &str = "mlpwin_snapshot_corrupt_total";

/// The snapshot file schema this build writes and reads. Bump on any
/// incompatible frame or core-image layout change; an unknown schema is
/// treated as corruption (quarantine + fall back), never a crash.
///
/// Schema 3: core images carry completion events for branches only, so
/// a schema-2 build restoring one would never complete any other
/// instruction.
pub const SNAPSHOT_SCHEMA: u32 = 3;

/// Leading magic of every snapshot file.
const MAGIC: [u8; 8] = *b"MLPWSNAP";

/// Conventional directory for snapshot files, next to the journal's
/// `results/` artifacts.
pub const DEFAULT_SNAPSHOT_DIR: &str = "results/snapshots";

/// Default snapshot cadence in measured cycles. One image costs a few
/// milliseconds of host time (encode plus `fsync`'d save), and the
/// stall fast-forward runs memory-bound programs at several Mcycles/s,
/// so this keeps snapshots under the 5% overhead bound `ci.sh` gates on
/// while bounding lost work to about half a second of simulation on the
/// slowest, compute-bound runs.
pub const DEFAULT_SNAPSHOT_CADENCE: u64 = 500_000;

/// Rotation depth of every recoverable run: how many snapshot
/// generations survive pruning.
pub const DEFAULT_SNAPSHOT_KEEP: usize = 3;

/// Which driver phase a snapshot was taken in — the restore side must
/// re-enter the matching driver (`resume_warmup` vs `resume_run`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotPhase {
    /// Taken during `run_warmup` (counters still to be reset).
    Warmup,
    /// Taken during the measured `run`.
    Measure,
}

impl SnapshotPhase {
    fn tag(self) -> u8 {
        match self {
            SnapshotPhase::Warmup => 0,
            SnapshotPhase::Measure => 1,
        }
    }

    fn from_tag(tag: u8) -> Option<SnapshotPhase> {
        match tag {
            0 => Some(SnapshotPhase::Warmup),
            1 => Some(SnapshotPhase::Measure),
            _ => None,
        }
    }
}

/// How the recoverable runner snapshots: where and how often. Every
/// run keeps [`DEFAULT_SNAPSHOT_KEEP`] generations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotPolicy {
    /// Directory holding the snapshot files.
    pub dir: PathBuf,
    /// Snapshot cadence in measured cycles (clamped to at least 1).
    pub cadence_cycles: u64,
}

impl Default for SnapshotPolicy {
    fn default() -> SnapshotPolicy {
        SnapshotPolicy {
            dir: PathBuf::from(DEFAULT_SNAPSHOT_DIR),
            cadence_cycles: DEFAULT_SNAPSHOT_CADENCE,
        }
    }
}

impl SnapshotPolicy {
    /// A policy rooted at `dir` with the default cadence.
    pub fn in_dir(dir: impl Into<PathBuf>) -> SnapshotPolicy {
        SnapshotPolicy {
            dir: dir.into(),
            ..SnapshotPolicy::default()
        }
    }

    /// Replaces the cadence.
    pub fn every(mut self, cadence_cycles: u64) -> SnapshotPolicy {
        self.cadence_cycles = cadence_cycles;
        self
    }
}

/// A decoded, CRC-verified snapshot ready to hand to `Core::restore`.
#[derive(Debug, Clone)]
pub struct LoadedSnapshot {
    /// Driver phase the image was taken in.
    pub phase: SnapshotPhase,
    /// Absolute core cycle of the image.
    pub cycle: u64,
    /// The `Core::snapshot()` byte image.
    pub payload: Vec<u8>,
    /// File the image came from (for quarantine on a failed restore).
    pub path: PathBuf,
}

/// One spec's rotated snapshot files under a directory.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    dir: PathBuf,
    spec_hash: u64,
    keep: usize,
}

impl SnapshotStore {
    /// A store for the spec identified by `spec_hash`, keeping at most
    /// `keep` generations (clamped to at least 1).
    pub fn new(dir: impl Into<PathBuf>, spec_hash: u64, keep: usize) -> SnapshotStore {
        SnapshotStore {
            dir: dir.into(),
            spec_hash,
            keep: keep.max(1),
        }
    }

    /// The directory this store reads and writes.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn file_path(&self, cycle: u64) -> PathBuf {
        // Zero-padded cycle: lexicographic order == numeric order.
        self.dir
            .join(format!("{:016x}-{:020}.snap", self.spec_hash, cycle))
    }

    /// Persists one image through
    /// [`write_atomic`](crate::lock::write_atomic), then prunes
    /// generations beyond the rotation depth.
    ///
    /// # Errors
    ///
    /// A human-readable description of the I/O failure; the caller
    /// decides whether a missed snapshot is fatal (the periodic sink
    /// treats it as a warning — the simulation itself is unharmed).
    pub fn save(
        &self,
        phase: SnapshotPhase,
        cycle: u64,
        payload: &[u8],
    ) -> Result<PathBuf, String> {
        let path = self.file_path(cycle);
        let frame = encode_frame(self.spec_hash, phase, cycle, payload);
        crate::lock::write_atomic(&path, &frame)
            .map_err(|e| format!("snapshot {} write failed: {e}", path.display()))?;
        self.prune();
        Ok(path)
    }

    /// The newest snapshot that passes every integrity check, or `None`
    /// when no usable snapshot exists. Files that fail a check are
    /// quarantined with a warning and the next-older generation is
    /// tried — corruption degrades to a fresh start, never an error.
    pub fn load_latest(&self) -> Option<LoadedSnapshot> {
        for path in self.candidates() {
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(e) => {
                    quarantine_with_warning(&path, &format!("read failed: {e}"));
                    continue;
                }
            };
            match decode_frame(self.spec_hash, &bytes) {
                Ok((phase, cycle, payload)) => {
                    return Some(LoadedSnapshot {
                        phase,
                        cycle,
                        payload,
                        path,
                    })
                }
                Err(detail) => quarantine_with_warning(&path, &detail),
            }
        }
        None
    }

    /// Moves a bad snapshot aside (`<name>.corrupt`) so it is never
    /// retried; falls back to deleting it when the rename fails. Every
    /// quarantine — from load, restore, or replay — counts into
    /// [`METRIC_SNAPSHOT_CORRUPT`].
    pub fn quarantine(&self, path: &Path) {
        quarantine_file(path);
    }

    /// Deletes every (non-quarantined) snapshot of this spec — called
    /// after a successful run so a finished spec never resumes from a
    /// stale image.
    pub fn discard(&self) {
        for path in self.candidates() {
            std::fs::remove_file(path).ok();
        }
    }

    /// This spec's snapshot files, newest first.
    fn candidates(&self) -> Vec<PathBuf> {
        let prefix = format!("{:016x}-", self.spec_hash);
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return Vec::new();
        };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".snap"))
            })
            .collect();
        // Zero-padded cycles make name order == age order.
        files.sort();
        files.reverse();
        files
    }

    fn prune(&self) {
        for stale in self.candidates().into_iter().skip(self.keep) {
            std::fs::remove_file(stale).ok();
        }
    }
}

/// Moves a bad frame file aside (`<name>.corrupt`), or deletes it when
/// the rename fails, counting it into [`METRIC_SNAPSHOT_CORRUPT`].
fn quarantine_file(path: &Path) {
    metrics::counter_add(METRIC_SNAPSHOT_CORRUPT, 1);
    let mut corrupt = path.as_os_str().to_owned();
    corrupt.push(".corrupt");
    if std::fs::rename(path, PathBuf::from(&corrupt)).is_err() {
        std::fs::remove_file(path).ok();
    }
}

/// [`quarantine_file`] with a warning naming the failed check — shared
/// with the split store, whose boundary frames use the same codec.
pub(crate) fn quarantine_with_warning(path: &Path, detail: &str) {
    eprintln!(
        "warning: snapshot {}: {detail}; quarantined, falling back",
        path.display()
    );
    quarantine_file(path);
}

// ---------------------------------------------------------------- framing

/// Bytes of a frame before its payload.
pub(crate) const FRAME_HEADER: usize = MAGIC.len() + 4 + 8 + 1 + 8 + 8;

/// Frame layout (all integers little-endian):
/// `magic[8] | schema u32 | spec_hash u64 | phase u8 | cycle u64 |
/// payload_len u64 | payload | crc32 u32` — the CRC covers every byte
/// before it.
pub fn encode_frame(spec_hash: u64, phase: SnapshotPhase, cycle: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 33 + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&SNAPSHOT_SCHEMA.to_le_bytes());
    out.extend_from_slice(&spec_hash.to_le_bytes());
    out.push(phase.tag());
    out.extend_from_slice(&cycle.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Validates and unpacks a frame written by [`encode_frame`]. The error
/// is a human-readable description of the first failed check.
pub fn decode_frame(
    expect_hash: u64,
    bytes: &[u8],
) -> Result<(SnapshotPhase, u64, Vec<u8>), String> {
    if bytes.len() < FRAME_HEADER + 4 {
        return Err(format!("short file ({} bytes)", bytes.len()));
    }
    let (body, crc_bytes) = bytes.split_at(bytes.len() - 4);
    let recorded = u32::from_le_bytes(crc_bytes.try_into().expect("4 bytes"));
    if crc32(body) != recorded {
        return Err("CRC mismatch".to_string());
    }
    check_frame_header(expect_hash, body)?;
    let mut at = MAGIC.len() + 4 + 8;
    let mut take = |n: usize| {
        let s = &body[at..at + n];
        at += n;
        s
    };
    let phase = SnapshotPhase::from_tag(take(1)[0]).ok_or("bad phase tag")?;
    let cycle = u64::from_le_bytes(take(8).try_into().expect("8 bytes"));
    let len = u64::from_le_bytes(take(8).try_into().expect("8 bytes"));
    let payload = &body[at..];
    if payload.len() as u64 != len {
        return Err(format!("payload length {} is not {len}", payload.len()));
    }
    Ok((phase, cycle, payload.to_vec()))
}

/// Checks a frame's magic, schema and spec hash from its first
/// [`FRAME_HEADER`] bytes alone, so a file that another build or spec
/// wrote is refused without reading its payload.
pub(crate) fn check_frame_header(expect_hash: u64, head: &[u8]) -> Result<(), String> {
    if head.len() < FRAME_HEADER {
        return Err(format!("short file ({} bytes)", head.len()));
    }
    if head[..MAGIC.len()] != MAGIC {
        return Err("bad magic".to_string());
    }
    let at = MAGIC.len();
    let schema = u32::from_le_bytes(head[at..at + 4].try_into().expect("4 bytes"));
    if schema != SNAPSHOT_SCHEMA {
        return Err(format!(
            "unknown schema {schema} (this build reads {SNAPSHOT_SCHEMA})"
        ));
    }
    let hash = u64::from_le_bytes(head[at + 4..at + 12].try_into().expect("8 bytes"));
    if hash != expect_hash {
        return Err(format!("spec hash {hash:016x} is not {expect_hash:016x}"));
    }
    Ok(())
}

// ----------------------------------------------------------------- writer

/// One request to a [`SnapshotWriter`]'s thread.
enum WriteRequest {
    /// Save this image (the run's periodic snapshot at `cycle`).
    Save {
        phase: SnapshotPhase,
        cycle: u64,
        image: Vec<u8>,
    },
    /// Acknowledge once every earlier image has been saved.
    Flush(mpsc::Sender<()>),
}

/// A test-only gate the writer thread passes before each save, called
/// with the image's cycle; a test holds the writer busy by blocking in
/// it.
#[cfg(test)]
pub(crate) type SaveGate = Arc<dyn Fn(u64) + Send + Sync>;

#[cfg(test)]
thread_local! {
    /// The gate for writers spawned from this thread (thread-local so
    /// concurrently running tests never hold each other's writers).
    pub(crate) static SAVE_GATE: std::cell::RefCell<Option<SaveGate>> =
        const { std::cell::RefCell::new(None) };
}

/// One run's background snapshot writer: a thread that makes offered
/// images durable with [`SnapshotStore::save`] (temp file, `fsync`,
/// rename, prune) while the simulation goes on.
///
/// The handoff is a rendezvous: the writer takes an image only when it
/// is free, so an offer made while the previous image is still being
/// saved blocks the simulating thread, and at most one image is ever in
/// flight. Images are saved in offer order,
/// and the chaos hook fires only after its image is saved. Dropping the
/// writer drains the queue and joins the thread, so once it is gone
/// every offered image is on disk (or its save failed with a warning).
pub(crate) struct SnapshotWriter {
    requests: Option<mpsc::SyncSender<WriteRequest>>,
    thread: Option<std::thread::JoinHandle<()>>,
    write_ns: Arc<AtomicU64>,
}

impl SnapshotWriter {
    /// Starts the writer for `store`. `fresh_start` arms the chaos hook
    /// (a resumed run never re-fires it).
    pub(crate) fn spawn(store: SnapshotStore, fresh_start: bool) -> SnapshotWriter {
        let (requests, queue) = mpsc::sync_channel::<WriteRequest>(0);
        let write_ns = Arc::new(AtomicU64::new(0));
        let total = Arc::clone(&write_ns);
        #[cfg(test)]
        let gate = SAVE_GATE.with(|g| g.borrow().clone());
        let thread = std::thread::Builder::new()
            .name("mlpwin-snapshot-writer".to_string())
            .spawn(move || {
                for request in queue {
                    match request {
                        WriteRequest::Save {
                            phase,
                            cycle,
                            image,
                        } => {
                            #[cfg(test)]
                            if let Some(gate) = &gate {
                                gate(cycle);
                            }
                            let started = Instant::now();
                            // A failed save is a warning, not an error:
                            // the simulation is unharmed, only the
                            // recovery point is older.
                            if let Err(detail) = store.save(phase, cycle, &image) {
                                eprintln!("warning: {detail}; continuing without this snapshot");
                            }
                            total.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
                            hooks::on_durable(cycle, fresh_start);
                        }
                        WriteRequest::Flush(ack) => {
                            ack.send(()).ok();
                        }
                    }
                }
            })
            .expect("spawn the snapshot writer thread");
        SnapshotWriter {
            requests: Some(requests),
            thread: Some(thread),
            write_ns,
        }
    }

    /// Hands one image to the writer; blocks while the previous image
    /// is still being saved.
    pub(crate) fn submit(&self, phase: SnapshotPhase, cycle: u64, image: Vec<u8>) {
        let request = WriteRequest::Save {
            phase,
            cycle,
            image,
        };
        if let Some(requests) = &self.requests {
            // A dead writer loses only recovery points, never results.
            requests.send(request).ok();
        }
    }

    /// Blocks until every image submitted so far has been saved.
    pub(crate) fn sync(&self) {
        let (ack, done) = mpsc::channel();
        if let Some(requests) = &self.requests {
            if requests.send(WriteRequest::Flush(ack)).is_ok() {
                done.recv().ok();
            }
        }
    }

    /// Host nanoseconds the writer has spent in saves so far.
    pub(crate) fn write_ns(&self) -> u64 {
        self.write_ns.load(Ordering::Relaxed)
    }
}

impl Drop for SnapshotWriter {
    fn drop(&mut self) {
        // Closing the queue ends the thread's loop once it has saved
        // every image already queued.
        drop(self.requests.take());
        if let Some(thread) = self.thread.take() {
            if thread.join().is_err() {
                eprintln!("warning: the snapshot writer panicked; later images were not saved");
            }
        }
    }
}

// ------------------------------------------------------------------ hooks

/// Process-global observation/chaos hooks fired at every snapshot-cadence
/// event — plumbing for the worker binaries (wire heartbeats,
/// deterministic crash injection for the recovery tests). Defaults are
/// all-off; library users never see them fire.
pub mod hooks {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::{Arc, Mutex};

    /// A shareable snapshot-cadence callback, fired with the cycle.
    pub type HeartbeatFn = Arc<dyn Fn(u64) + Send + Sync>;

    static CHAOS_KILL_AT: AtomicU64 = AtomicU64::new(u64::MAX);
    static HEARTBEAT_FN: Mutex<Option<HeartbeatFn>> = Mutex::new(None);

    /// Install (or clear) a callback fired with the simulated cycle at
    /// every snapshot-cadence event — `mlpwin-worker` (over TCP) and
    /// `mlpwin-sim --wire` (over its stdout pipe) use it to send the
    /// wire heartbeats that renew a lease while a run is in flight.
    /// Runs on the simulating thread; keep it quick and non-panicking.
    pub fn set_heartbeat_fn(f: Option<HeartbeatFn>) {
        *HEARTBEAT_FN.lock().expect("heartbeat hook lock") = f;
    }

    /// Abort the process at the first snapshot at or past `cycle`, once
    /// that image is saved — but only on a fresh (non-resumed) run, so
    /// the post-crash resume completes. Test-only chaos injection.
    pub fn set_chaos_kill_at(cycle: Option<u64>) {
        CHAOS_KILL_AT.store(cycle.unwrap_or(u64::MAX), Ordering::SeqCst);
    }

    /// Fired on the simulating thread when an image is offered: the
    /// heartbeat leaves here, before the image reaches the disk.
    pub(crate) fn on_offer(cycle: u64) {
        let hook = HEARTBEAT_FN.lock().expect("heartbeat hook lock").clone();
        if let Some(f) = hook {
            f(cycle);
        }
    }

    /// Fired on the writer thread once the image for `cycle` has been
    /// saved, so an injected crash always finds that image on disk.
    pub(crate) fn on_durable(cycle: u64, fresh_start: bool) {
        if fresh_start && cycle >= CHAOS_KILL_AT.load(Ordering::SeqCst) {
            eprintln!("chaos: aborting at cycle {cycle} (injected crash)");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlpwin-snapstore-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn frames_round_trip() {
        let payload = b"core image bytes".to_vec();
        let frame = encode_frame(0xABCD, SnapshotPhase::Measure, 12_345, &payload);
        let (phase, cycle, body) = decode_frame(0xABCD, &frame).expect("decodes");
        assert_eq!(phase, SnapshotPhase::Measure);
        assert_eq!(cycle, 12_345);
        assert_eq!(body, payload);
    }

    #[test]
    fn every_corruption_mode_is_detected() {
        let frame = encode_frame(7, SnapshotPhase::Warmup, 99, b"payload");
        // Truncation at any point.
        for cut in [0, 5, frame.len() / 2, frame.len() - 1] {
            assert!(decode_frame(7, &frame[..cut]).is_err(), "cut at {cut}");
        }
        // A single flipped bit anywhere trips the CRC (or a field check).
        for i in (0..frame.len()).step_by(7) {
            let mut bad = frame.clone();
            bad[i] ^= 0x40;
            assert!(decode_frame(7, &bad).is_err(), "flip at {i}");
        }
        // The wrong spec refuses the image.
        assert!(decode_frame(8, &frame).unwrap_err().contains("spec hash"));
    }

    #[test]
    fn store_rotates_and_returns_newest() {
        let dir = scratch("rotate");
        let store = SnapshotStore::new(&dir, 0x11, 2);
        for cycle in [100, 200, 300, 400] {
            store
                .save(SnapshotPhase::Measure, cycle, &cycle.to_le_bytes())
                .expect("save");
        }
        let latest = store.load_latest().expect("has snapshots");
        assert_eq!(latest.cycle, 400);
        // Depth 2: only 300 and 400 survive.
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 2, "{names:?}");
        store.discard();
        assert!(store.load_latest().is_none());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous_generation() {
        let dir = scratch("heal");
        let store = SnapshotStore::new(&dir, 0x22, 3);
        store
            .save(SnapshotPhase::Measure, 100, b"older, intact")
            .expect("save");
        let newest = store
            .save(SnapshotPhase::Measure, 200, b"newer, doomed")
            .expect("save");
        // Bit-flip the newest file in place.
        let mut bytes = std::fs::read(&newest).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&newest, &bytes).expect("rewrite");

        let loaded = store.load_latest().expect("older generation survives");
        assert_eq!(loaded.cycle, 100);
        assert_eq!(loaded.payload, b"older, intact");
        assert!(
            !newest.exists(),
            "corrupt file must be moved aside, not retried"
        );
        let quarantined = PathBuf::from(format!("{}.corrupt", newest.display()));
        assert!(quarantined.exists(), "quarantine keeps the evidence");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncated_files_at_random_offsets_never_load() {
        let dir = scratch("truncate");
        let store = SnapshotStore::new(&dir, 0x33, 4);
        let payload: Vec<u8> = (0..=255).collect();
        let path = store
            .save(SnapshotPhase::Warmup, 500, &payload)
            .expect("save");
        let full = std::fs::read(&path).expect("read");
        // A deterministic pseudo-random walk over truncation points.
        let mut x = 0x9E37_79B9_u64;
        for _ in 0..16 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let cut = (x % full.len() as u64) as usize;
            std::fs::write(&path, &full[..cut]).expect("truncate");
            assert!(store.load_latest().is_none(), "cut at {cut} must not load");
            // load_latest quarantined it; restore the original for the
            // next iteration.
            std::fs::remove_file(PathBuf::from(format!("{}.corrupt", path.display()))).ok();
            std::fs::write(&path, &full).expect("restore file");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
