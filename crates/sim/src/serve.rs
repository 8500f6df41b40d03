//! The fault-tolerant campaign control plane (`mlpwin-serve`).
//!
//! [`run_campaign`] drives a spec matrix to completion across a pool of
//! supervised worker processes, surviving any combination of worker
//! SIGKILLs and controller SIGKILLs:
//!
//! - every job transition lands in the [`queue`](crate::queue) WAL
//!   before it takes effect, so a killed controller replays back to the
//!   exact pre-crash state — no job lost, none double-counted;
//! - workers hold time-bounded leases renewed by their snapshot
//!   heartbeats; a vaporized worker's lease expires and the job
//!   re-runs, resuming from its latest snapshot;
//! - local slots and fleet connections differ only in transport: a
//!   local job is an `mlpwin-sim --wire` child writing the fleet's wire
//!   frames to a pipe, so both go through one lease, one heartbeat
//!   handler and one settle, and the controller alone writes
//!   `done.jsonl`;
//! - a job that kills [`QueuePolicy::max_kills`] successive workers is
//!   quarantined as poison, with the last worker's stderr tail (stall
//!   snapshot, panic message) attached, and the rest of the campaign
//!   proceeds;
//! - finished results are served from the content-addressed
//!   [`CacheStore`] — resubmitting a completed campaign simulates
//!   nothing and still produces the identical journal.
//!
//! The finalized `journal.jsonl` is written in submission order from
//! deterministic per-spec results, so it is **bit-identical** to the
//! journal a serial, uninterrupted run would have produced — the chaos
//! suite in `tests/campaign.rs` asserts exactly that.
//!
//! Graceful drain: on SIGINT/SIGTERM workers finish their in-flight
//! jobs (settling the results), lease nothing new, and the controller
//! reports [`CampaignOutcome::Interrupted`]; the binary exits
//! [`EXIT_INTERRUPTED`](crate::signals::EXIT_INTERRUPTED) (75) and
//! rerunning the same command resumes the campaign.
//!
//! # Observability plane
//!
//! With `--listen ADDR` ([`CampaignConfig::listen`]) the controller
//! embeds the read-only [`httpserve`](crate::httpserve) server:
//! `/metrics` (Prometheus), `/status` (campaign snapshot), `/jobs` +
//! `/jobs/<id>` (per-job lifecycle), `/healthz`. The bound address is
//! written to `obs.addr` in the campaign directory so scripts can
//! discover an ephemeral port. The job queue stamps every transition
//! it makes into its [`CampaignLog`] ring and keeps the per-state
//! tallies that the progress line, `/status`, the queue gauges of a
//! `/metrics` scrape or flight record, and the [`CampaignReport`] all
//! render from when they are read — no surface keeps a copy of its
//! own. The controller adds only campaign-scoped events. The
//! ring feeds three consumers: the
//! `/jobs/<id>` event views, the `--trace-out` Chrome trace (one track
//! per worker, one span per job phase), and the crash flight recorder
//! (`flightrec/` dumps on worker death, quarantine, graceful-drain
//! signal, fatal error, or a worker-thread panic). All of it runs in
//! the controller process, off the simulation hot path: worker children
//! are untouched, and the finalized journal is bit-identical with the
//! listener on or off (`tests/observability_http.rs` asserts that).

use crate::cachestore::CacheStore;
use crate::campaign_events::{
    derive_spans, next_flight_seq, write_flight_record, CampaignLog, EventKind,
};
use crate::chrome_trace;
use crate::error::SimError;
use crate::httpserve::{HttpServer, ObsProvider};
use crate::journal::{canonical_spec, decode_line, encode_line, Journal};
use crate::json::{num, obj, s, Json};
use crate::lock::{write_atomic, LockedFile, DEAD_HOLDER_WAIT};
use crate::metrics::{self, MetricsSnapshot};
use crate::progress::Progress;
use crate::queue::{DeathVerdict, JobId, JobQueue, JobState, Lane, QueuePolicy, QueueTally};
use crate::runner::{
    RunResult, RunSpec, METRIC_CYCLES_SKIPPED, METRIC_CYCLES_STEPPED, METRIC_EVENTS_POPPED,
    METRIC_EVENTS_POSTED,
};
use crate::signals;
use crate::snapshot::{SnapshotPolicy, DEFAULT_SNAPSHOT_CADENCE};
use crate::supervisor::{Supervisor, WorkerEnd};
use crate::wire::{Conn, Msg, WireError, WIRE_SCHEMA};
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Counter: remote workers that reconnected under a base name the
/// controller had already welcomed this campaign.
pub const METRIC_FLEET_RECONNECTS: &str = "mlpwin_fleet_reconnects_total";
/// Counter: handshakes refused (wire-schema mismatch, malformed hello).
pub const METRIC_FLEET_HANDSHAKE_REJECTS: &str = "mlpwin_fleet_handshake_rejects_total";
/// Counter: frames dropped as corrupt (CRC/decode failures, torn
/// frames, results failing hash verification).
pub const METRIC_FLEET_FRAMES_CORRUPT: &str = "mlpwin_fleet_frames_corrupt_total";
/// Histogram (labeled by base worker name): worker-measured heartbeat
/// round-trip times, µs.
pub const METRIC_FLEET_RTT: &str = "mlpwin_fleet_rtt_us";
/// Gauge: remote workers currently connected.
pub const METRIC_FLEET_CONNECTED: &str = "mlpwin_fleet_workers_connected";

/// Everything a campaign needs to run.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// The campaign directory: WAL, results journal, snapshots, lock
    /// file and the finalized `journal.jsonl` all live here.
    pub dir: PathBuf,
    /// The `mlpwin-sim` worker executable.
    pub worker_exe: PathBuf,
    /// Concurrent worker slots.
    pub workers: usize,
    /// Lease length; a worker heartbeat (one per snapshot) renews it,
    /// and a worker silent for this long is presumed dead.
    pub lease: Duration,
    /// Worker deaths before a job is quarantined as poison.
    pub max_kills: u32,
    /// Base retry backoff (doubles per death, plus deterministic
    /// jitter).
    pub backoff_base: Duration,
    /// Snapshot cadence in measured cycles, forwarded to local
    /// workers (a fleet worker takes its own `--snapshot-cycles`, with
    /// the same default). Each snapshot offer also sends one heartbeat, so
    /// the host time a worker takes to simulate one cadence interval
    /// must stay comfortably under `lease`. At the default
    /// [`DEFAULT_SNAPSHOT_CADENCE`] the slowest bundled profile × model
    /// pair (`namd fixed3`) takes 0.34–0.55 s per interval on a 2-vCPU
    /// host against the 5 s lease.
    pub snapshot_cycles: u64,
    /// Per-job wall-clock deadline; the supervisor kills a worker that
    /// exceeds it (counts as a death).
    pub job_time_budget: Option<Duration>,
    /// An external results journal to warm the dedup cache from (e.g. a
    /// previous campaign's `journal.jsonl`).
    pub cache: Option<PathBuf>,
    /// Test-only chaos: workers abort at the first snapshot at or past
    /// this cycle on fresh (non-resumed) starts.
    pub chaos_kill_at: Option<u64>,
    /// Bind the observability HTTP server here (e.g. `127.0.0.1:0`);
    /// `None` (the default) runs no server at all.
    pub listen: Option<String>,
    /// Bind the fleet TCP listener here (e.g. `0.0.0.0:0`) to accept
    /// remote `mlpwin-worker` connections; `None` (the default) keeps
    /// the campaign local-only. The bound address is published to
    /// `fleet.addr` in the campaign directory.
    pub fleet_listen: Option<String>,
    /// Write the campaign Chrome trace (one track per worker, one span
    /// per job phase) here when the campaign ends.
    pub trace_out: Option<PathBuf>,
    /// Mirror live progress lines (with queue depth, active leases and
    /// cache-hit percentage) to stderr.
    pub progress: bool,
}

impl CampaignConfig {
    /// A campaign in `dir` running `worker_exe`, with defaults sized
    /// for the bundled profiles: 2 workers, 5 s leases, 3 kills to
    /// quarantine, 100 ms backoff, snapshots at the one
    /// [`DEFAULT_SNAPSHOT_CADENCE`] every recoverable run uses, no
    /// observability listener.
    pub fn new(dir: impl Into<PathBuf>, worker_exe: impl Into<PathBuf>) -> CampaignConfig {
        CampaignConfig {
            dir: dir.into(),
            worker_exe: worker_exe.into(),
            workers: 2,
            lease: Duration::from_secs(5),
            max_kills: 3,
            backoff_base: Duration::from_millis(100),
            snapshot_cycles: DEFAULT_SNAPSHOT_CADENCE,
            job_time_budget: None,
            cache: None,
            chaos_kill_at: None,
            listen: None,
            fleet_listen: None,
            trace_out: None,
            progress: false,
        }
    }

    /// The campaign WAL path.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("campaign.wal")
    }

    /// The results journal the controller appends as jobs settle (raw,
    /// completion-ordered).
    pub fn done_path(&self) -> PathBuf {
        self.dir.join("done.jsonl")
    }

    /// The finalized, submission-ordered journal.
    pub fn journal_path(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }

    /// The controller lock file.
    pub fn lock_path(&self) -> PathBuf {
        self.dir.join("LOCK")
    }

    /// Where the bound observability address is published (`--listen`
    /// with port 0 picks an ephemeral port; scripts read it from here).
    pub fn obs_addr_path(&self) -> PathBuf {
        self.dir.join("obs.addr")
    }

    /// Where the bound fleet-listener address is published
    /// (`--fleet-listen` with port 0 picks an ephemeral port; workers
    /// on other machines read it from here or get told out of band).
    pub fn fleet_addr_path(&self) -> PathBuf {
        self.dir.join("fleet.addr")
    }

    /// The crash flight-recorder directory.
    pub fn flightrec_dir(&self) -> PathBuf {
        self.dir.join("flightrec")
    }
}

/// Campaign tallies, for the summary line and exit-code decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CampaignReport {
    /// Distinct jobs (submitted specs after dedup).
    pub jobs: usize,
    /// Jobs finished with a journaled result.
    pub done: usize,
    /// Done jobs served from the dedup cache (no simulation).
    pub cache_hits: usize,
    /// Done jobs that ran a worker this campaign.
    pub simulated: usize,
    /// Jobs with a deterministic, typed failure.
    pub failed: usize,
    /// Jobs quarantined as poison.
    pub quarantined: usize,
}

impl From<QueueTally> for CampaignReport {
    fn from(tally: QueueTally) -> CampaignReport {
        CampaignReport {
            jobs: tally.jobs(),
            done: tally.done(),
            cache_hits: tally.cached,
            simulated: tally.simulated,
            failed: tally.failed,
            quarantined: tally.quarantined,
        }
    }
}

impl CampaignReport {
    /// The one-line summary the binary prints.
    pub fn render(&self) -> String {
        format!(
            "campaign: jobs={} done={} cache_hits={} simulated={} failed={} quarantined={}",
            self.jobs, self.done, self.cache_hits, self.simulated, self.failed, self.quarantined
        )
    }
}

/// How a campaign ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CampaignOutcome {
    /// Every job reached a terminal state; `journal.jsonl` is written
    /// (there may still be failed/quarantined jobs — check the report).
    Complete(CampaignReport),
    /// Gracefully drained on SIGINT/SIGTERM with work remaining;
    /// rerunning the same command resumes. The finalized journal is
    /// *not* written.
    Interrupted(CampaignReport),
}

/// One controller-side worker slot's live view, for `/status`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct WorkerSlot {
    name: String,
    /// The job the slot is driving and when it took it, or `None` while
    /// idle.
    job: Option<(JobId, u64)>,
}

/// Shared fleet-listener state: connection counts for `/status`, the
/// progress line and the degraded-mode decision, plus the stop flag
/// the accept loop, janitor, and per-connection threads all watch.
struct FleetInfo {
    /// Remote workers currently past the handshake.
    connected: AtomicUsize,
    /// Monotonic connection counter; makes every accepted connection's
    /// assigned identity (`name#N`) unique across reconnects.
    conn_seq: AtomicU64,
    /// Base worker names welcomed at least once — a repeat is counted
    /// as a reconnect.
    seen: Mutex<HashSet<String>>,
    /// Set at drain; every fleet thread exits at its next check.
    stop: AtomicBool,
}

impl FleetInfo {
    fn new() -> FleetInfo {
        FleetInfo {
            connected: AtomicUsize::new(0),
            conn_seq: AtomicU64::new(0),
            seen: Mutex::new(HashSet::new()),
            stop: AtomicBool::new(false),
        }
    }
}

/// The shared mutable state one campaign's worker threads drive.
///
/// Lock ordering: `queue` may be held while taking `cache`, `workers`,
/// `progress`, the event log's internal mutex or the metrics registry's
/// — never the reverse.
/// The HTTP snapshot builders take locks one at a time and release
/// before the next, so they can never participate in a cycle.
struct Campaign {
    queue: Mutex<JobQueue>,
    cache: Mutex<CacheStore>,
    /// First fatal control-plane error any worker hit (WAL append
    /// failure); stops the campaign.
    fatal: Mutex<Option<SimError>>,
    started: Instant,
    /// The queue's event ring: `/jobs/<id>` views, Chrome trace spans,
    /// flight-recorder dumps.
    log: Arc<CampaignLog>,
    /// Live worker-slot states for `/status`.
    workers: Mutex<Vec<WorkerSlot>>,
    /// Aggregate MIPS/ETA, shared with the progress line and `/status`.
    progress: Mutex<Progress>,
    /// Mirror progress lines to stderr.
    show_progress: bool,
    /// The next flight record's sequence number, above every record
    /// already in `flight_dir` when the controller started.
    flight_seq: AtomicU64,
    /// Where flight records land.
    flight_dir: PathBuf,
    /// Remote-fleet state when `--fleet-listen` is up; `None` keeps the
    /// campaign local-only.
    fleet: Option<Arc<FleetInfo>>,
}

impl Campaign {
    /// Campaign-clock reading in ms (monotonic, starts at 0).
    fn now_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn abort(&self, err: SimError) {
        let first = {
            let mut slot = self.fatal.lock().expect("fatal slot poisoned");
            let first = slot.is_none().then(|| err.to_string());
            slot.get_or_insert(err);
            first
        };
        if let Some(detail) = first {
            self.log
                .record(self.now_ms(), None, EventKind::Fatal { detail });
            self.dump_flight("fatal control-plane error");
        }
        signals::request_interrupt();
    }

    /// Marks slot `me` as running `job` (or idle with `None`).
    fn set_worker(&self, me: &str, job: Option<(JobId, u64)>) {
        let mut slots = self.workers.lock().expect("worker slots poisoned");
        if let Some(slot) = slots.iter_mut().find(|w| w.name == me) {
            slot.job = job;
        }
    }

    /// Folds the queue's settled count into the progress state and, when
    /// that crossed an epoch, mirrors the line to stderr if enabled.
    /// Every path that may settle a job calls this after the queue lock
    /// drops; a call that finds nothing newly settled does nothing.
    fn record_progress(&self) {
        // Both locks are held while the count is folded in, so counts
        // reach the ETA window in the order they were read.
        let line = {
            let queue = self.queue.lock().expect("queue poisoned");
            let mut progress = self.progress.lock().expect("progress poisoned");
            let now = self.started.elapsed().as_secs_f64();
            let due = progress.settle(now, queue.tally().terminal());
            (due && self.show_progress).then(|| self.progress_line(&queue, &progress, now))
        };
        if let Some(line) = line {
            eprintln!("{line}");
        }
    }

    /// The progress line: job counts from `queue`, throughput and ETA
    /// from `progress`.
    fn progress_line(&self, queue: &JobQueue, progress: &Progress, now: f64) -> String {
        let fleet = self
            .fleet
            .as_ref()
            .map(|f| f.connected.load(Ordering::SeqCst));
        progress.campaign_line(now, &queue.tally(), queue.retried(), fleet)
    }

    /// Dumps a flight record (events + metrics snapshot + queue state).
    /// Best-effort by contract: a failed dump warns and the campaign
    /// continues. Never call with the queue lock held.
    fn dump_flight(&self, reason: &str) {
        let seq = self.flight_seq.fetch_add(1, Ordering::SeqCst);
        let (queue_json, tally) = {
            let queue = self.queue.lock().expect("queue poisoned");
            (jobs_json(&queue, self.now_ms()), queue.tally())
        };
        if let Err(e) = write_flight_record(
            &self.flight_dir,
            seq,
            reason,
            self.now_ms(),
            &self.log,
            scrape(&tally).to_json(),
            queue_json,
        ) {
            eprintln!("warning: flight record for `{reason}` not written: {e}");
        }
    }

    /// The `/status` document. Takes each lock briefly, one at a time.
    fn status_json(&self) -> Json {
        let now = self.now_ms();
        let (tally, leases) = {
            let queue = self.queue.lock().expect("queue poisoned");
            let leases: Vec<Json> = queue
                .jobs()
                .iter()
                .filter_map(|j| match &j.state {
                    JobState::Leased { worker, expires_ms } => {
                        let timing = queue.timing(j.id);
                        Some(obj(vec![
                            ("job", num(j.id)),
                            ("worker", s(worker.clone())),
                            (
                                "age_ms",
                                num(timing.last_leased_ms.map_or(0, |at| now.saturating_sub(at))),
                            ),
                            ("expires_in_ms", num(expires_ms.saturating_sub(now))),
                            (
                                "heartbeat_age_ms",
                                num(timing
                                    .last_heartbeat_ms
                                    .map_or(0, |at| now.saturating_sub(at))),
                            ),
                        ]))
                    }
                    _ => None,
                })
                .collect();
            (queue.tally(), leases)
        };
        let cache_entries = self.cache.lock().expect("cache poisoned").len();
        let workers: Vec<Json> = self
            .workers
            .lock()
            .expect("worker slots poisoned")
            .iter()
            .map(|slot| {
                let (state, job, since) = match slot.job {
                    Some((id, since_ms)) => ("running", num(id), num(since_ms)),
                    None => ("idle", Json::Null, Json::Null),
                };
                obj(vec![
                    ("name", s(slot.name.clone())),
                    ("state", s(state)),
                    ("job", job),
                    ("since_ms", since),
                ])
            })
            .collect();
        let (mips, kcps, eta) = {
            let secs = self.started.elapsed().as_secs_f64();
            let progress = self.progress.lock().expect("progress poisoned");
            (
                progress.aggregate_mips(secs),
                progress.aggregate_kcps(secs),
                progress.eta_secs(secs),
            )
        };
        let lanes = Lane::ALL
            .iter()
            .map(|&lane| (lane.tag(), num(tally.pending[lane as usize] as u64)))
            .collect();
        obj(vec![
            ("mode", s("campaign")),
            ("uptime_ms", num(now)),
            ("jobs", num(tally.jobs() as u64)),
            ("done", num(tally.done() as u64)),
            ("failed", num(tally.failed as u64)),
            ("quarantined", num(tally.quarantined as u64)),
            (
                "queue",
                obj(vec![
                    ("depth", num(tally.depth() as u64)),
                    ("leased", num(tally.leased as u64)),
                    ("lanes", obj(lanes)),
                ]),
            ),
            ("leases", Json::Arr(leases)),
            ("workers", Json::Arr(workers)),
            (
                "cache",
                obj(vec![
                    ("hits", num(tally.cached as u64)),
                    ("simulated", num(tally.simulated as u64)),
                    ("entries", num(cache_entries as u64)),
                ]),
            ),
            (
                "throughput",
                obj(vec![
                    ("mips", Json::Num(mips)),
                    ("kcyc_per_sec", Json::Num(kcps)),
                    ("eta_secs", eta.map_or(Json::Null, Json::Num)),
                ]),
            ),
            (
                "fleet",
                match &self.fleet {
                    Some(f) => {
                        let connected = f.connected.load(Ordering::SeqCst);
                        obj(vec![
                            ("enabled", Json::Bool(true)),
                            ("connected", num(connected as u64)),
                            // Degraded: a fleet was asked for but no
                            // remote worker is connected — local threads
                            // are draining the queue alone.
                            ("degraded", Json::Bool(connected == 0)),
                        ])
                    }
                    None => obj(vec![("enabled", Json::Bool(false))]),
                },
            ),
            ("interrupted", Json::Bool(signals::interrupted())),
            ("dropped_events", num(self.log.dropped())),
        ])
    }

    /// The `/jobs` document.
    fn jobs_json(&self) -> Json {
        let queue = self.queue.lock().expect("queue poisoned");
        jobs_json(&queue, self.now_ms())
    }

    /// The `/jobs/<id>` document, with the job's retained events.
    fn job_json(&self, id: JobId) -> Option<Json> {
        let view = {
            let queue = self.queue.lock().expect("queue poisoned");
            if (id as usize) >= queue.jobs().len() {
                return None;
            }
            job_view(&queue, id, self.now_ms())
        };
        let events: Vec<Json> = self
            .log
            .events_for(id)
            .iter()
            .map(|e| e.to_json())
            .collect();
        let Json::Obj(mut pairs) = view else {
            return Some(view);
        };
        pairs.insert("events".to_string(), Json::Arr(events));
        Some(Json::Obj(pairs))
    }
}

/// The `/jobs` array for a queue snapshot.
fn jobs_json(queue: &JobQueue, now_ms: u64) -> Json {
    Json::Arr(
        queue
            .jobs()
            .iter()
            .map(|j| job_view(queue, j.id, now_ms))
            .collect(),
    )
}

/// One job's lifecycle view (shared by `/jobs`, `/jobs/<id>` and the
/// flight recorder).
fn job_view(queue: &JobQueue, id: JobId, now_ms: u64) -> Json {
    let job = queue.job(id);
    let timing = queue.timing(id);
    let opt = |v: Option<u64>| v.map_or(Json::Null, num);
    let (state, state_detail) = match &job.state {
        JobState::Pending { not_before_ms } => {
            ("pending", obj(vec![("not_before_ms", num(*not_before_ms))]))
        }
        JobState::Leased { worker, expires_ms } => (
            "leased",
            obj(vec![
                ("worker", s(worker.clone())),
                ("expires_ms", num(*expires_ms)),
                ("expires_in_ms", num(expires_ms.saturating_sub(now_ms))),
            ]),
        ),
        JobState::Done { cached } => ("done", obj(vec![("cached", Json::Bool(*cached))])),
        JobState::Failed { detail } => ("failed", obj(vec![("detail", s(detail.clone()))])),
        JobState::Quarantined { detail } => {
            ("quarantined", obj(vec![("detail", s(detail.clone()))]))
        }
    };
    obj(vec![
        ("id", num(job.id)),
        ("spec", s(canonical_spec(&job.spec))),
        ("hash", s(format!("{:016x}", job.hash))),
        ("lane", s(job.lane.tag())),
        ("kills", num(job.kills as u64)),
        ("attempts", num(timing.attempts as u64)),
        ("state", s(state)),
        ("state_detail", state_detail),
        (
            "timing",
            obj(vec![
                ("pending_since_ms", num(timing.pending_since_ms)),
                ("first_leased_ms", opt(timing.first_leased_ms)),
                ("last_leased_ms", opt(timing.last_leased_ms)),
                ("last_heartbeat_ms", opt(timing.last_heartbeat_ms)),
                ("terminal_ms", opt(timing.terminal_ms)),
            ]),
        ),
    ])
}

/// The metrics registry plus the queue gauges computed from `tally` —
/// what a `/metrics` scrape and a flight record show.
fn scrape(tally: &QueueTally) -> MetricsSnapshot {
    let mut snapshot = metrics::global().snapshot();
    tally.set_gauges(&mut snapshot);
    snapshot
}

/// [`ObsProvider`] over a live campaign.
struct CampaignObs(Arc<Campaign>);

impl ObsProvider for CampaignObs {
    fn status(&self) -> Json {
        self.0.status_json()
    }

    fn jobs(&self) -> Json {
        self.0.jobs_json()
    }

    fn job(&self, id: u64) -> Option<Json> {
        self.0.job_json(id)
    }

    fn metrics(&self) -> MetricsSnapshot {
        scrape(&self.0.queue.lock().expect("queue poisoned").tally())
    }
}

/// Runs `jobs` to completion under `cfg`. See the module docs for the
/// fault-tolerance contract.
///
/// # Errors
///
/// [`SimError::Locked`] when another controller already owns the
/// campaign directory, [`SimError::Campaign`] on fatal control-plane
/// I/O, journal/WAL errors as typed.
pub fn run_campaign(
    jobs: &[(RunSpec, Lane)],
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, SimError> {
    // One controller per campaign directory — fail fast, don't
    // interleave. The lock rides the process: a SIGKILL releases it,
    // once any child forked from the killed controller has exec'd.
    let _lock = LockedFile::try_claim(cfg.lock_path())?;
    let policy = QueuePolicy {
        lease_ms: cfg.lease.as_millis() as u64,
        max_kills: cfg.max_kills,
        backoff_base_ms: cfg.backoff_base.as_millis().max(1) as u64,
    };
    // Holding LOCK, only a dead controller's straggler (see `try_claim`)
    // can hold the WAL: exec closes the straggler's descriptors in
    // order, LOCK's first, so the WAL can stay held a moment longer.
    let deadline = Instant::now() + DEAD_HOLDER_WAIT;
    let mut queue = loop {
        match JobQueue::open(&cfg.wal_path(), policy) {
            Err(SimError::Locked { .. }) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(10));
            }
            opened => break opened?,
        }
    };

    // Warm the dedup cache: this campaign's own completions (restart
    // path, read once) first, then any external journal.
    let mut cache = CacheStore::new();
    let mut in_done_journal: Vec<RunSpec> = Vec::new();
    for (spec, result) in Journal::new(cfg.done_path()).load()? {
        cache.insert(&spec, &result);
        in_done_journal.push(spec);
    }
    if let Some(external) = &cfg.cache {
        cache.absorb_file(external)?;
    }

    // Submit everything; verified cache hits complete immediately. All
    // of this happens at campaign-clock zero.
    for (spec, lane) in jobs {
        let id = queue.submit(spec, *lane)?;
        if queue.job(id).state.is_terminal() {
            continue; // replayed from the WAL
        }
        match cache.lookup(spec) {
            Ok(Some(result)) => {
                // The finalize step (and any restarted controller)
                // recovers results from done.jsonl, so an external
                // cache hit must be on disk there before the WAL says
                // Done.
                if !in_done_journal.contains(spec) {
                    Journal::new(cfg.done_path()).append_durable(spec, result)?;
                    in_done_journal.push(spec.clone());
                }
                queue.complete(id, true, 0)?;
            }
            Ok(None) => {}
            Err(SimError::HashCollision { hash, detail }) => {
                // Loud, typed, and safe: simulate fresh instead of
                // serving the wrong spec's result.
                eprintln!(
                    "warning: cache hit rejected (spec-hash collision on {hash:016x}: \
                     {detail}); simulating fresh"
                );
            }
            Err(other) => return Err(other),
        }
    }
    let log = Arc::clone(queue.log());
    log.record(
        0,
        None,
        EventKind::ControllerStart {
            jobs: queue.jobs().len(),
        },
    );

    // Jobs already terminal (WAL replay, cache hits) count toward the
    // total from the start but not toward the ETA's rate.
    let progress = Progress::new(queue.jobs().len()).starting_at(queue.tally().terminal());
    cache.publish_metrics();

    let campaign = Campaign {
        queue: Mutex::new(queue),
        cache: Mutex::new(cache),
        fatal: Mutex::new(None),
        started: Instant::now(),
        log,
        workers: Mutex::new(
            (0..cfg.workers.max(1))
                .map(|i| WorkerSlot {
                    name: format!("w{i}"),
                    job: None,
                })
                .collect(),
        ),
        progress: Mutex::new(progress),
        show_progress: cfg.progress,
        flight_seq: AtomicU64::new(next_flight_seq(&cfg.flightrec_dir())),
        flight_dir: cfg.flightrec_dir(),
        fleet: cfg
            .fleet_listen
            .as_ref()
            .map(|_| Arc::new(FleetInfo::new())),
    };
    let campaign = Arc::new(campaign);

    // The remote-worker plane, when asked for. Its bound address goes
    // to fleet.addr; `mlpwin-worker --connect` dials it.
    let fleet = match &cfg.fleet_listen {
        Some(bind) => Some(start_fleet(&campaign, cfg, bind)?),
        None => None,
    };

    // The observability server, when asked for. Its bound address goes
    // to obs.addr so callers can resolve `--listen 127.0.0.1:0`.
    let server = match &cfg.listen {
        Some(addr) => {
            let server = HttpServer::start(addr, Arc::new(CampaignObs(Arc::clone(&campaign))))?;
            let bound = server.addr();
            write_addr_file(&cfg.obs_addr_path(), &bound)?;
            eprintln!("observability: listening on http://{bound}");
            Some(server)
        }
        None => None,
    };

    let handles: Vec<_> = (0..cfg.workers.max(1))
        .map(|i| {
            let campaign = Arc::clone(&campaign);
            let cfg = cfg.clone();
            std::thread::Builder::new()
                .name(format!("campaign-w{i}"))
                .spawn(move || {
                    let me = format!("w{i}");
                    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        worker_loop(&me, &campaign, &cfg)
                    }));
                    if let Err(payload) = caught {
                        // A controller-side bug must not strand the
                        // campaign silently: flight-record it, then
                        // stop everything with a typed error.
                        let message = crate::error::panic_message(payload);
                        campaign.dump_flight(&format!("worker thread panic: {message}"));
                        campaign.abort(SimError::Panic {
                            message: format!("campaign worker {me} panicked: {message}"),
                        });
                    }
                })
                .expect("spawn campaign worker")
        })
        .collect();
    for handle in handles {
        handle.join().expect("campaign worker panicked");
    }

    let result = (|| {
        if let Some(err) = campaign.fatal.lock().expect("fatal slot poisoned").take() {
            // abort() already flight-recorded this.
            return Err(err);
        }
        let (report, all_terminal) = {
            let queue = campaign.queue.lock().expect("queue poisoned");
            (CampaignReport::from(queue.tally()), queue.all_terminal())
        };
        let interrupted = signals::interrupted() && !all_terminal;
        if interrupted {
            campaign
                .log
                .record(campaign.now_ms(), None, EventKind::Interrupted);
            campaign.dump_flight("graceful drain (signal)");
        }
        if let Some(path) = &cfg.trace_out {
            write_campaign_trace(path, &campaign)?;
        }
        if interrupted {
            return Ok(CampaignOutcome::Interrupted(report));
        }
        let queue = campaign.queue.lock().expect("queue poisoned");
        let cache = campaign.cache.lock().expect("cache poisoned");
        finalize(&queue, &cache, cfg)?;
        Ok(CampaignOutcome::Complete(report))
    })();
    if let Some(fleet) = fleet {
        fleet.shutdown();
    }
    if let Some(server) = server {
        server.shutdown();
    }
    // The published addresses die with the plane: left behind they
    // would point `--probe` and late-dialing workers at a dead
    // controller (and a crashed run's stale files get cleaned up by
    // the next run's rewrite-then-remove cycle).
    std::fs::remove_file(cfg.obs_addr_path()).ok();
    std::fs::remove_file(cfg.fleet_addr_path()).ok();
    result
}

/// Publishes `addr` at `path` through [`write_atomic`], so a script
/// polling the file never reads a torn address.
fn write_addr_file(path: &Path, addr: &std::net::SocketAddr) -> Result<(), SimError> {
    write_atomic(path, format!("{addr}\n").as_bytes()).map_err(|e| SimError::Campaign {
        detail: format!("write {}: {e}", path.display()),
    })
}

/// Renders the campaign event log as a Chrome trace at `path`.
fn write_campaign_trace(path: &Path, campaign: &Campaign) -> Result<(), SimError> {
    let spans = derive_spans(&campaign.log.snapshot());
    let jobs = campaign.queue.lock().expect("queue poisoned").jobs().len();
    let doc = chrome_trace::campaign_trace_document(&spans, jobs);
    write_atomic(path, doc.encode().as_bytes()).map_err(|e| SimError::Campaign {
        detail: format!("write trace {}: {e}", path.display()),
    })
}

/// One local worker slot: lease → supervise one `mlpwin-sim --wire`
/// child → settle, until the queue drains or an interrupt lands. The
/// child's frames reach the same heartbeat and settle handlers a fleet
/// connection uses (see [`supervisor_for`]); what is left here is what
/// only a process exit can tell.
fn worker_loop(me: &str, campaign: &Arc<Campaign>, cfg: &CampaignConfig) {
    loop {
        if signals::interrupted() {
            return;
        }
        let (job, spec) = match lease(campaign, me) {
            Msg::LeaseGrant { job, spec } => (job, spec),
            Msg::Idle { .. } => {
                // Backoff windows and other workers' leases drain on
                // their own clock; poll gently.
                std::thread::sleep(Duration::from_millis(10));
                continue;
            }
            _ => return, // drained, interrupted, or aborted
        };
        campaign.set_worker(me, Some((job, campaign.now_ms())));
        let end = supervisor_for(campaign, cfg, job, me).supervise_once(&spec);
        campaign.set_worker(me, None);
        let settled = match end {
            WorkerEnd::Interrupted => {
                let now = campaign.now_ms();
                let mut queue = campaign.queue.lock().expect("queue poisoned");
                let released = if owns(&queue, job, me) {
                    queue.release(job, "graceful drain", now)
                } else {
                    Ok(())
                };
                drop(queue);
                if let Err(e) = released {
                    campaign.abort(e);
                }
                return;
            }
            WorkerEnd::TypedFailure { code, stderr_tail } => fail(
                campaign,
                me,
                job,
                with_tail(&format!("worker exit code {code}"), &stderr_tail),
            ),
            // The reader thread has settled any result frame by now, so
            // a job this slot still owns after a clean exit got none.
            WorkerEnd::Clean => settle_death(
                campaign,
                job,
                me,
                "worker exited clean but sent no result frame",
            ),
            WorkerEnd::Death {
                detail,
                stderr_tail,
            } => settle_death(campaign, job, me, &with_tail(&detail, &stderr_tail)),
            WorkerEnd::LaunchFailed { detail } => settle_death(campaign, job, me, &detail),
        };
        if let Err(e) = settled {
            campaign.abort(e);
            return;
        }
    }
}

/// Records a worker death against `id` when `me` still owns it and
/// dumps a flight record.
fn settle_death(campaign: &Campaign, id: JobId, me: &str, detail: &str) -> Result<(), SimError> {
    let now = campaign.now_ms();
    let verdict = {
        let mut queue = campaign.queue.lock().expect("queue poisoned");
        if !owns(&queue, id, me) {
            return Ok(());
        }
        queue.death(id, detail, now)?
    };
    campaign.dump_flight(&match verdict {
        DeathVerdict::Requeued { .. } => format!("worker death: {detail}"),
        DeathVerdict::Quarantined => format!("job {id} quarantined: {detail}"),
    });
    campaign.record_progress();
    Ok(())
}

/// Records a deterministic, typed failure of `id` when `identity` still
/// owns it; a stale report is absorbed. Shared by local slots (worker
/// exit 1 or 2) and fleet connections (a `failed` frame).
fn fail(campaign: &Campaign, identity: &str, id: JobId, detail: String) -> Result<(), SimError> {
    let now = campaign.now_ms();
    {
        let mut queue = campaign.queue.lock().expect("queue poisoned");
        if !valid_job(&queue, id) || !owns(&queue, id, identity) {
            return Ok(());
        }
        queue.fail(id, &detail, now)?;
    }
    campaign.record_progress();
    Ok(())
}

/// Renews `id`'s lease when `identity` still holds it: a heartbeat
/// arriving after expiry (or after the job moved to another worker) is
/// stale noise and must not extend or resurrect the lease. Shared by
/// local slots and fleet connections.
fn heartbeat(campaign: &Campaign, identity: &str, id: JobId) {
    let now = campaign.now_ms();
    let mut queue = campaign.queue.lock().expect("queue poisoned");
    if valid_job(&queue, id) && owns(&queue, id, identity) {
        queue.renew(id, now);
    }
}

/// Whether `me` still holds `id`'s lease. False once `expire_stale`
/// reclaimed it — the job is someone else's (or pending) and this
/// worker must not record anything against it.
fn owns(queue: &JobQueue, id: JobId, me: &str) -> bool {
    matches!(&queue.job(id).state, JobState::Leased { worker, .. } if worker == me)
}

fn with_tail(detail: &str, stderr_tail: &str) -> String {
    let tail = stderr_tail.trim();
    if tail.is_empty() {
        detail.to_string()
    } else {
        format!("{detail}; stderr tail: {tail}")
    }
}

// ------------------------------------------------------------ fleet plane

/// How often the fleet janitor expires stale leases and refreshes the
/// fleet gauge. Local worker threads do the same between their own
/// leases, but they can be parked inside `supervise_once` for a whole
/// job — the janitor keeps a SIGKILLed remote worker's lease from
/// outliving its expiry by more than a tick.
const JANITOR_TICK: Duration = Duration::from_millis(150);

/// Controller-side read cadence on fleet connections: short enough to
/// notice the stop flag promptly while a remote worker simulates in
/// silence between heartbeats.
const FLEET_IDLE_TICK: Duration = Duration::from_millis(250);

/// The running fleet plane: the TCP accept loop plus the lease
/// janitor. Per-connection threads are detached — each exits on its
/// own when its stream dies or the stop flag flips, and every queue
/// mutation they perform is guarded by current queue state, so a
/// late frame after shutdown is a harmless no-op.
struct FleetListener {
    addr: std::net::SocketAddr,
    info: Arc<FleetInfo>,
    accept: Option<std::thread::JoinHandle<()>>,
    janitor: Option<std::thread::JoinHandle<()>>,
    /// Dropped at shutdown to wake the janitor out of its tick wait.
    janitor_wake: Option<mpsc::Sender<()>>,
}

impl FleetListener {
    /// Flips the stop flag, wakes the blocking accept with a loopback
    /// poke and the janitor by dropping its wake channel, and joins the
    /// accept and janitor threads.
    fn shutdown(mut self) {
        self.info.stop.store(true, Ordering::SeqCst);
        TcpStream::connect_timeout(&self.addr, Duration::from_secs(2)).ok();
        drop(self.janitor_wake.take());
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        if let Some(handle) = self.janitor.take() {
            handle.join().ok();
        }
    }
}

/// Binds the fleet listener, publishes its address to `fleet.addr`,
/// and starts the accept and janitor threads.
fn start_fleet(
    campaign: &Arc<Campaign>,
    cfg: &CampaignConfig,
    bind: &str,
) -> Result<FleetListener, SimError> {
    let info = Arc::clone(campaign.fleet.as_ref().expect("fleet state installed"));
    let listener = TcpListener::bind(bind).map_err(|e| SimError::Campaign {
        detail: format!("fleet listen on {bind}: {e}"),
    })?;
    let addr = listener.local_addr().map_err(|e| SimError::Campaign {
        detail: format!("fleet local_addr: {e}"),
    })?;
    write_addr_file(&cfg.fleet_addr_path(), &addr)?;
    eprintln!("fleet: listening on {addr}");
    metrics::gauge_set(METRIC_FLEET_CONNECTED, 0.0);

    let accept = {
        let campaign = Arc::clone(campaign);
        let cfg = cfg.clone();
        let info = Arc::clone(&info);
        std::thread::Builder::new()
            .name("fleet-accept".to_string())
            .spawn(move || {
                for conn in listener.incoming() {
                    if info.stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let conn_id = info.conn_seq.fetch_add(1, Ordering::SeqCst);
                    let campaign = Arc::clone(&campaign);
                    let cfg = cfg.clone();
                    let info = Arc::clone(&info);
                    let spawned = std::thread::Builder::new()
                        .name(format!("fleet-conn-{conn_id}"))
                        .spawn(move || {
                            let caught =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    serve_fleet_conn(stream, conn_id, &campaign, &cfg, &info)
                                }));
                            if let Err(payload) = caught {
                                let message = crate::error::panic_message(payload);
                                campaign.abort(SimError::Panic {
                                    message: format!(
                                        "fleet connection {conn_id} handler panicked: {message}"
                                    ),
                                });
                            }
                        });
                    if spawned.is_err() {
                        // Thread exhaustion: drop the connection; the
                        // worker reconnects with backoff.
                        continue;
                    }
                }
            })
            .map_err(|e| SimError::Campaign {
                detail: format!("fleet accept thread spawn: {e}"),
            })?
    };

    let (janitor_wake, wake) = mpsc::channel::<()>();
    let janitor = {
        let campaign = Arc::clone(campaign);
        let info = Arc::clone(&info);
        std::thread::Builder::new()
            .name("fleet-janitor".to_string())
            .spawn(move || {
                while !info.stop.load(Ordering::SeqCst) {
                    // A tick passes with the sender alive; shutdown drops
                    // it, which ends the wait at once.
                    if !matches!(
                        wake.recv_timeout(JANITOR_TICK),
                        Err(mpsc::RecvTimeoutError::Timeout)
                    ) {
                        return;
                    }
                    let now = campaign.now_ms();
                    let expired = campaign
                        .queue
                        .lock()
                        .expect("queue poisoned")
                        .expire_stale(now);
                    if let Err(e) = expired {
                        campaign.abort(e);
                        return;
                    }
                    campaign.record_progress();
                    metrics::gauge_set(
                        METRIC_FLEET_CONNECTED,
                        info.connected.load(Ordering::SeqCst) as f64,
                    );
                }
            })
            .map_err(|e| SimError::Campaign {
                detail: format!("fleet janitor thread spawn: {e}"),
            })?
    };

    Ok(FleetListener {
        addr,
        info,
        accept: Some(accept),
        janitor: Some(janitor),
        janitor_wake: Some(janitor_wake),
    })
}

/// Decrements the connected gauge when a connection handler exits by
/// any path.
struct ConnectedGuard<'a>(&'a FleetInfo);

impl Drop for ConnectedGuard<'_> {
    fn drop(&mut self) {
        let left = self.0.connected.fetch_sub(1, Ordering::SeqCst) - 1;
        metrics::gauge_set(METRIC_FLEET_CONNECTED, left as f64);
    }
}

/// Drives one remote worker connection: handshake, then a strict
/// request/response loop until the stream dies, a corrupt frame
/// arrives, or the plane stops. The worker may vanish at any byte;
/// everything it owned is reclaimed by lease expiry.
fn serve_fleet_conn(
    stream: TcpStream,
    conn_id: u64,
    campaign: &Arc<Campaign>,
    cfg: &CampaignConfig,
    info: &FleetInfo,
) {
    let Ok(mut conn) = Conn::from_stream(stream) else {
        return;
    };
    conn.set_idle_tick(FLEET_IDLE_TICK);

    // Handshake: the first frame must be a compatible hello. A few
    // idle ticks of grace cover an injected delay on the worker side;
    // a shutdown poke (connect + drop) reads as Closed immediately.
    let hello = {
        let mut ticks = 0;
        loop {
            match conn.recv_or_idle() {
                Ok(Some(msg)) => break msg,
                Ok(None) => {
                    ticks += 1;
                    if ticks >= 20 || info.stop.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Err(WireError::Corrupt { .. }) => {
                    metrics::counter_add(METRIC_FLEET_FRAMES_CORRUPT, 1);
                    return;
                }
                Err(_) => return,
            }
        }
    };
    let (base, identity) = match hello {
        Msg::Hello { schema, worker } if schema == WIRE_SCHEMA => {
            // `#` separates the base name from the connection number in
            // assigned identities; strip it from untrusted input so no
            // two connections can collide on one identity.
            let base = worker.replace('#', "-");
            let identity = format!("{base}#{conn_id}");
            (base, identity)
        }
        Msg::Hello { schema, .. } => {
            metrics::counter_add(METRIC_FLEET_HANDSHAKE_REJECTS, 1);
            eprintln!("fleet: rejected worker speaking wire schema {schema} (ours: {WIRE_SCHEMA})");
            conn.send(&Msg::Reject {
                reason: format!("wire schema {schema} (ours: {WIRE_SCHEMA})"),
            })
            .ok();
            return;
        }
        _ => {
            metrics::counter_add(METRIC_FLEET_HANDSHAKE_REJECTS, 1);
            conn.send(&Msg::Reject {
                reason: "expected hello".to_string(),
            })
            .ok();
            return;
        }
    };
    {
        let mut seen = info.seen.lock().expect("fleet names poisoned");
        if !seen.insert(base.clone()) {
            metrics::counter_add(METRIC_FLEET_RECONNECTS, 1);
        }
    }
    if conn
        .send(&Msg::Welcome {
            worker: identity.clone(),
        })
        .is_err()
    {
        return;
    }
    let connected = info.connected.fetch_add(1, Ordering::SeqCst) + 1;
    metrics::gauge_set(METRIC_FLEET_CONNECTED, connected as f64);
    let _guard = ConnectedGuard(info);
    eprintln!("fleet: {identity} connected from {}", conn.peer());

    loop {
        if info.stop.load(Ordering::SeqCst) {
            conn.send(&Msg::Drain).ok();
            return;
        }
        match conn.recv_or_idle() {
            Ok(None) => continue, // idle tick: re-check the stop flag
            Ok(Some(msg)) => match handle_fleet_msg(campaign, cfg, &identity, &base, msg) {
                Some(reply) => {
                    if conn.send(&reply).is_err() {
                        return;
                    }
                }
                None => return,
            },
            Err(WireError::Corrupt { detail }) => {
                metrics::counter_add(METRIC_FLEET_FRAMES_CORRUPT, 1);
                eprintln!("fleet: {identity}: corrupt frame ({detail}); closing");
                return;
            }
            Err(_) => return, // clean close or transport death
        }
    }
}

/// Handles one inbound fleet frame. Returns the reply to send, or
/// `None` to close the connection (desync, corrupt result, fatal
/// control-plane error).
fn handle_fleet_msg(
    campaign: &Arc<Campaign>,
    cfg: &CampaignConfig,
    identity: &str,
    base: &str,
    msg: Msg,
) -> Option<Msg> {
    match msg {
        Msg::LeaseRequest => Some(lease(campaign, identity)),
        Msg::Heartbeat { job, rtt_us, .. } => {
            heartbeat(campaign, identity, job);
            if rtt_us > 0 {
                metrics::observe(
                    metrics::labeled(METRIC_FLEET_RTT, &[("worker", base)]),
                    rtt_us,
                );
            }
            Some(Msg::Ack)
        }
        Msg::Result { job, line } => settle(campaign, &cfg.done_path(), identity, job, &line),
        Msg::Failed { job, detail } => match fail(campaign, identity, job, detail) {
            Ok(()) => Some(Msg::Ack),
            Err(e) => {
                campaign.abort(e);
                None
            }
        },
        // Any controller-to-worker message type (or a second hello)
        // arriving here means the peer is desynced — close and let it
        // reconnect cleanly.
        _ => None,
    }
}

/// Answers a lease request from a local slot or a fleet connection:
/// expires stale leases first, serves banked (cache-verified) results
/// without a grant, then hands out the next runnable job — or Idle with
/// a backoff hint, or Drain once every job is terminal (or the campaign
/// is draining).
fn lease(campaign: &Campaign, identity: &str) -> Msg {
    if signals::interrupted() {
        return Msg::Drain;
    }
    let reply = {
        let mut queue = campaign.queue.lock().expect("queue poisoned");
        let now = campaign.now_ms();
        if let Err(e) = queue.expire_stale(now) {
            drop(queue);
            campaign.abort(e);
            return Msg::Drain;
        }
        loop {
            match queue.lease(identity, now) {
                Err(e) => {
                    drop(queue);
                    campaign.abort(e);
                    break Msg::Drain;
                }
                Ok(None) => {
                    break if queue.all_terminal() {
                        Msg::Drain
                    } else {
                        // Backoff windows and other workers' leases
                        // drain on their own clock; hint when to re-ask.
                        let wait = queue
                            .next_ready_ms()
                            .map_or(50, |at| at.saturating_sub(now))
                            .clamp(20, 500);
                        Msg::Idle { backoff_ms: wait }
                    };
                }
                Ok(Some(job)) => {
                    // A result banked while the job was unowned (late
                    // duplicate, expired lease): complete from cache,
                    // grant nothing, look for real work.
                    let banked = {
                        let cache = campaign.cache.lock().expect("cache poisoned");
                        cache.lookup(&job.spec).ok().flatten().is_some()
                    };
                    if banked {
                        if let Err(e) = queue.complete(job.id, true, now) {
                            drop(queue);
                            campaign.abort(e);
                            break Msg::Drain;
                        }
                        continue;
                    }
                    break Msg::LeaseGrant {
                        job: job.id,
                        spec: job.spec,
                    };
                }
            }
        }
    };
    // Expiry quarantines and cache-served completions settle under the
    // lock; the progress line counts them once it drops.
    campaign.record_progress();
    reply
}

/// Settles a returned result idempotently, for a local slot's result
/// frame and a fleet connection's alike. The journal line is
/// re-verified (embedded spec hash) before anything is trusted; the
/// verified result is banked in `done.jsonl` + cache *before* the WAL
/// flips to Done, and the Done transition itself happens only while the
/// sender still owns the lease — a duplicate or late result is absorbed
/// without mutation. The controller is the only writer of `done.jsonl`.
/// `None` asks a fleet connection to close (unverifiable line, desynced
/// job id, fatal control-plane error).
fn settle(campaign: &Campaign, done: &Path, identity: &str, job: JobId, line: &str) -> Option<Msg> {
    let Some((spec, result)) = decode_line(line) else {
        metrics::counter_add(METRIC_FLEET_FRAMES_CORRUPT, 1);
        eprintln!("campaign: {identity}: result line failed hash verification");
        return None;
    };
    settle_result(campaign, done, identity, job, &spec, &result)
}

/// [`settle`] past the line's hash check. Folds `result.engine` into
/// the controller's engine counters once per completed job; a journal
/// line carries no engine counters, so a result decoded from a worker's
/// line folds zeros there.
fn settle_result(
    campaign: &Campaign,
    done: &Path,
    identity: &str,
    job: JobId,
    spec: &RunSpec,
    result: &RunResult,
) -> Option<Msg> {
    let now = campaign.now_ms();
    let reply = {
        let mut queue = campaign.queue.lock().expect("queue poisoned");
        if !valid_job(&queue, job) || queue.job(job).spec != *spec {
            // The claimed job id does not carry this spec: desynced
            // (or adversarial) peer.
            drop(queue);
            metrics::counter_add(METRIC_FLEET_FRAMES_CORRUPT, 1);
            return None;
        }
        if queue.job(job).state.is_terminal() {
            // Already settled (by this worker's earlier duplicate or
            // another worker): absorb silently.
            Msg::Settled { owned: false }
        } else {
            {
                let mut cache = campaign.cache.lock().expect("cache poisoned");
                if cache.lookup(spec).ok().flatten().is_none() {
                    // Synced before the WAL's Done below: after a power
                    // loss a Done job's line must still be here for
                    // `finalize` to find.
                    if let Err(e) = Journal::new(done).append_durable(spec, result) {
                        drop(cache);
                        drop(queue);
                        campaign.abort(e);
                        return None;
                    }
                    cache.insert(spec, result);
                }
            }
            // Not owned: the lease expired mid-flight. The result is
            // banked; whoever leases the job next completes it from
            // cache without re-running.
            let owned = owns(&queue, job, identity);
            if owned {
                if let Err(e) = queue.complete(job, false, now) {
                    drop(queue);
                    campaign.abort(e);
                    return None;
                }
                // Added under the queue lock, so a line that counts
                // this job carries its work.
                let engine = &result.engine;
                campaign
                    .progress
                    .lock()
                    .expect("progress poisoned")
                    .add_work(
                        result.stats.committed_insts,
                        result.stats.cycles,
                        engine.skipped_cycles,
                    );
                // The worker's engine traffic, once per completed job:
                // the controller's /metrics sees what its whole fleet
                // simulated.
                metrics::counter_add(METRIC_EVENTS_POSTED, engine.events_posted);
                metrics::counter_add(METRIC_EVENTS_POPPED, engine.events_popped);
                metrics::counter_add(METRIC_CYCLES_SKIPPED, engine.skipped_cycles);
                metrics::counter_add(METRIC_CYCLES_STEPPED, engine.stepped_cycles);
            }
            Msg::Settled { owned }
        }
    };
    campaign.record_progress();
    Some(reply)
}

/// Remote job ids are untrusted input: bounds-check before indexing.
fn valid_job(queue: &JobQueue, id: JobId) -> bool {
    (id as usize) < queue.jobs().len()
}

/// The per-job supervisor: single launch (the queue owns retry policy),
/// stderr capture for quarantine diagnostics, and a frame hook tagged
/// with the job and slot it launched for — the child's heartbeats renew
/// the lease and its result frame settles through the same handlers a
/// fleet connection uses.
fn supervisor_for(
    campaign: &Arc<Campaign>,
    cfg: &CampaignConfig,
    job: JobId,
    me: &str,
) -> Supervisor {
    let mut sup = Supervisor::new(
        &cfg.worker_exe,
        SnapshotPolicy {
            dir: cfg.dir.join("snapshots"),
            cadence_cycles: cfg.snapshot_cycles,
        },
    );
    sup.heartbeat_timeout = Some(cfg.lease);
    sup.time_budget = cfg.job_time_budget;
    sup.chaos_kill_at = cfg.chaos_kill_at;
    sup.capture_stderr = true;
    let campaign = Arc::clone(campaign);
    let done = cfg.done_path();
    let me = me.to_string();
    sup.frame_hook = Some(Arc::new(move |msg| match msg {
        Msg::Heartbeat { .. } => heartbeat(&campaign, &me, job),
        Msg::Result { line, .. } => {
            settle(&campaign, &done, &me, job, &line);
        }
        _ => {}
    }));
    sup
}

/// Writes the finalized `journal.jsonl`: one line per Done job, in
/// submission order, from verified cached results — byte-identical to
/// the journal a serial uninterrupted run produces, regardless of how
/// many workers died along the way or which order they finished in.
fn finalize(queue: &JobQueue, cache: &CacheStore, cfg: &CampaignConfig) -> Result<(), SimError> {
    let mut text = String::new();
    for job in queue.jobs() {
        if !matches!(job.state, JobState::Done { .. }) {
            continue;
        }
        let result = cache.lookup(&job.spec)?.ok_or_else(|| SimError::Campaign {
            detail: format!(
                "job {} is Done but its result is missing from done.jsonl",
                job.id
            ),
        })?;
        text.push_str(&encode_line(&job.spec, result));
        text.push('\n');
    }
    let path = cfg.journal_path();
    write_atomic(&path, text.as_bytes()).map_err(|e| SimError::Campaign {
        detail: format!("write {}: {e}", path.display()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec_n(n: u64) -> RunSpec {
        let mut s = RunSpec::new("gcc", crate::SimModel::Base).with_budget(100, 100);
        s.seed = n;
        s
    }

    /// A campaign around `queue` with an empty cache, no worker slots,
    /// no fleet and nowhere to write flight records.
    fn in_memory_campaign(queue: JobQueue) -> Campaign {
        let jobs = queue.jobs().len();
        Campaign {
            log: Arc::clone(queue.log()),
            queue: Mutex::new(queue),
            cache: Mutex::new(CacheStore::new()),
            fatal: Mutex::new(None),
            started: Instant::now(),
            workers: Mutex::new(Vec::new()),
            progress: Mutex::new(Progress::new(jobs)),
            show_progress: false,
            flight_seq: AtomicU64::new(1),
            flight_dir: std::env::temp_dir().join("mlpwin-never-used"),
            fleet: None,
        }
    }

    #[test]
    fn report_tallies_every_terminal_state() {
        let mut queue = JobQueue::in_memory(QueuePolicy::default());
        for n in 0..5 {
            queue.submit(&spec_n(n), Lane::Normal).expect("submit");
        }
        queue.lease("w", 0).expect("lease").expect("granted");
        queue.complete(0, true, 1).expect("complete");
        queue.lease("w", 0).expect("lease").expect("granted");
        queue.complete(1, false, 2).expect("complete");
        queue.lease("w", 0).expect("lease").expect("granted");
        queue.fail(2, "typo", 3).expect("fail");
        let report = CampaignReport::from(queue.tally());
        assert_eq!(report.jobs, 5);
        assert_eq!(report.done, 2);
        assert_eq!(report.cache_hits, 1);
        assert_eq!(report.simulated, 1);
        assert_eq!(report.failed, 1);
        assert_eq!(report.quarantined, 0);
        assert!(report.render().contains("done=2"), "{}", report.render());
    }

    /// A default campaign forwards the one cadence every recoverable
    /// run uses to the worker command line it launches.
    #[test]
    fn default_campaign_workers_snapshot_at_the_default_cadence() {
        let campaign = Arc::new(in_memory_campaign(JobQueue::in_memory(
            QueuePolicy::default(),
        )));
        let cfg = CampaignConfig::new("/tmp/never-used", "/bin/true");
        let args = supervisor_for(&campaign, &cfg, 0, "w0").spec_args(&spec_n(0));
        let at = args
            .iter()
            .position(|a| a == "--snapshot-cycles")
            .expect("--snapshot-cycles is forwarded");
        assert_eq!(
            args[at + 1],
            DEFAULT_SNAPSHOT_CADENCE.to_string(),
            "{args:?}"
        );
    }

    /// Golden structural coverage for the `/status` and `/jobs` JSON
    /// schema, against a hand-driven in-memory campaign.
    #[test]
    fn status_and_jobs_json_schema() {
        let mut queue = JobQueue::in_memory(QueuePolicy::default());
        for n in 0..3 {
            queue.submit(&spec_n(n), Lane::Normal).expect("submit");
        }
        queue.lease("w0", 10).expect("lease").expect("granted");
        queue.complete(0, false, 50).expect("complete");
        queue.lease("w0", 60).expect("lease").expect("granted");
        let campaign = in_memory_campaign(queue);
        *campaign.workers.lock().expect("worker slots") = vec![
            WorkerSlot {
                name: "w0".to_string(),
                job: Some((1, 60)),
            },
            WorkerSlot {
                name: "w1".to_string(),
                job: None,
            },
        ];
        let status = campaign.status_json();
        let text = status.encode();
        let parsed = Json::parse(&text).expect("status is valid JSON");
        assert_eq!(parsed.get("mode").and_then(Json::as_str), Some("campaign"));
        assert_eq!(parsed.get("jobs").and_then(Json::as_u64), Some(3));
        assert_eq!(parsed.get("done").and_then(Json::as_u64), Some(1));
        let queue_view = parsed.get("queue").expect("queue block");
        assert_eq!(queue_view.get("depth").and_then(Json::as_u64), Some(1));
        assert_eq!(queue_view.get("leased").and_then(Json::as_u64), Some(1));
        assert_eq!(
            queue_view
                .get("lanes")
                .and_then(|l| l.get("normal"))
                .and_then(Json::as_u64),
            Some(1)
        );
        let leases = parsed
            .get("leases")
            .and_then(Json::as_arr)
            .expect("leases array");
        assert_eq!(leases.len(), 1, "exactly the one live lease, no phantoms");
        assert_eq!(leases[0].get("job").and_then(Json::as_u64), Some(1));
        assert_eq!(leases[0].get("worker").and_then(Json::as_str), Some("w0"));
        let workers = parsed
            .get("workers")
            .and_then(Json::as_arr)
            .expect("workers array");
        assert_eq!(workers.len(), 2);
        assert_eq!(
            workers[0].get("state").and_then(Json::as_str),
            Some("running")
        );
        assert_eq!(workers[1].get("state").and_then(Json::as_str), Some("idle"));
        assert!(parsed.get("throughput").is_some());

        let jobs = campaign.jobs_json();
        let arr = Json::parse(&jobs.encode())
            .expect("jobs is valid JSON")
            .as_arr()
            .map(<[Json]>::len);
        assert_eq!(arr, Some(3));

        let job1 = campaign.job_json(1).expect("job 1 exists");
        assert_eq!(job1.get("state").and_then(Json::as_str), Some("leased"));
        assert_eq!(job1.get("attempts").and_then(Json::as_u64), Some(1));
        let events = job1
            .get("events")
            .and_then(Json::as_arr)
            .expect("events attached");
        let kinds: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("kind").and_then(Json::as_str))
            .collect();
        assert_eq!(kinds, ["submitted", "leased"], "the queue's own events");
        let job0 = campaign.job_json(0).expect("job 0 exists");
        assert_eq!(job0.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(
            job0.get("timing")
                .and_then(|t| t.get("terminal_ms"))
                .and_then(Json::as_u64),
            Some(50)
        );
        assert!(campaign.job_json(99).is_none(), "unknown id is None");
    }

    /// One in-memory queue through submit, lease, death, release,
    /// fail, lease expiry and completion: after each, the `/status`
    /// counts, the progress line, the final report and the queue gauges
    /// of a `/metrics` scrape all equal a recount of the job table.
    #[test]
    fn every_surface_renders_a_recount_of_the_job_table() {
        let _knob = metrics::KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        metrics::set_telemetry(true);
        let mut queue = JobQueue::in_memory(QueuePolicy {
            lease_ms: 10,
            max_kills: 2,
            backoff_base_ms: 1,
        });
        let lanes = [
            Lane::High,
            Lane::Normal,
            Lane::Normal,
            Lane::Low,
            Lane::Normal,
        ];
        for (n, &lane) in lanes.iter().enumerate() {
            queue.submit(&spec_n(n as u64), lane).expect("submit");
        }
        let mut campaign = in_memory_campaign(queue);
        // Explicit transitions run at campaign-clock 0..=301 ms; the
        // clock itself reads 10 s, so `lease` expires every older lease.
        campaign.started = Instant::now() - Duration::from_secs(10);
        let campaign = Arc::new(campaign);
        let obs = CampaignObs(Arc::clone(&campaign));
        let check = |what: &str| {
            let queue = campaign.queue.lock().expect("queue");
            let mut recount = QueueTally::default();
            for job in queue.jobs() {
                *recount.slot(job.lane, &job.state) += 1;
            }
            let retried = (queue.jobs().iter())
                .filter(|j| j.state.is_terminal() && queue.timing(j.id).attempts > 1)
                .count();
            let line = campaign.progress_line(&queue, &campaign.progress.lock().expect("p"), 1.0);
            let report = CampaignReport::from(queue.tally());
            drop(queue);
            assert_eq!(report, CampaignReport::from(recount), "{what}: report");
            let (failed, [high, normal, low]) =
                (recount.failed + recount.quarantined, recount.pending);
            for segment in [
                format!("{}/{} specs", recount.terminal(), recount.jobs()),
                format!("({failed} failed, {retried} retried)"),
                format!("q={} leased={}", recount.depth(), recount.leased),
            ] {
                assert!(line.contains(&segment), "{what}: {line} lacks {segment}");
            }
            let status = campaign.status_json();
            for (path, want) in [
                ("jobs", recount.jobs()),
                ("done", recount.done()),
                ("failed", recount.failed),
                ("quarantined", recount.quarantined),
                ("queue.depth", recount.depth()),
                ("queue.leased", recount.leased),
                ("queue.lanes.high", high),
                ("queue.lanes.normal", normal),
                ("queue.lanes.low", low),
                ("cache.hits", recount.cached),
                ("cache.simulated", recount.simulated),
            ] {
                let got = (path.split('.')).try_fold(&status, |v, key| v.get(key));
                assert_eq!(
                    got.and_then(Json::as_u64),
                    Some(want as u64),
                    "{what}: {path}"
                );
            }
            let text = obs.metrics().render_prometheus();
            metrics::validate_prometheus(&text).expect("valid exposition");
            for (series, want) in [
                ("mlpwin_queue_depth", recount.depth()),
                ("mlpwin_queue_leased", recount.leased),
                ("mlpwin_queue_depth_lane{lane=\"high\"}", high),
                ("mlpwin_queue_depth_lane{lane=\"normal\"}", normal),
                ("mlpwin_queue_depth_lane{lane=\"low\"}", low),
            ] {
                let sample = format!("\n{series} {want}\n");
                assert!(
                    text.contains(&sample),
                    "{what}: no {series} {want} in\n{text}"
                );
            }
        };
        let lease_at = |worker: &str, now: u64| {
            let granted = campaign.queue.lock().expect("queue").lease(worker, now);
            granted.expect("lease").expect("granted").id
        };
        let with_queue = |f: &dyn Fn(&mut JobQueue)| f(&mut campaign.queue.lock().expect("queue"));
        check("submit");
        assert_eq!([0, 1, 2].map(|_| lease_at("w", 0)), [0, 1, 2]);
        check("lease");
        with_queue(&|q| {
            assert!(matches!(
                q.death(0, "boom", 1),
                Ok(DeathVerdict::Requeued { .. })
            ))
        });
        check("death");
        with_queue(&|q| q.release(1, "graceful drain", 1).expect("release"));
        check("release");
        with_queue(&|q| q.fail(2, "typo", 1).expect("fail"));
        check("fail");
        assert_eq!(lease_at("w0", 100), 0, "the high lane first");
        // The controller's lease path expires job 0's second lease (its
        // second death: quarantined) and grants job 1 its second attempt.
        let grant = Msg::LeaseGrant {
            job: 1,
            spec: spec_n(1),
        };
        assert_eq!(lease(&campaign, "w1"), grant);
        // ...and has already folded the failure and the quarantine into
        // the progress state, so the line reports them when due.
        let pending = campaign.progress.lock().expect("p").settle(1.0, 2);
        assert!(!pending, "the lease path left settled jobs out of progress");
        check("lease expiry");
        with_queue(&|q| q.complete(1, false, 201).expect("complete"));
        check("complete");
        assert_eq!(lease_at("w2", 300), 4);
        with_queue(&|q| q.complete(4, true, 301).expect("complete"));
        check("cached complete");
        metrics::set_telemetry(false);
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlpwin-serve-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    /// A heartbeat renews only the sender's own lease. Once the job has
    /// moved to another worker, a late beat from the old holder — a
    /// local slot or a fleet connection — leaves the expiry alone.
    #[test]
    fn a_heartbeat_from_a_former_holder_leaves_the_lease_alone() {
        for (late, holder) in [("w0", "w1"), ("remote#1", "w0")] {
            let mut queue = JobQueue::in_memory(QueuePolicy::default());
            queue.submit(&spec_n(1), Lane::Normal).expect("submit");
            queue.lease(holder, 0).expect("lease").expect("granted");
            let campaign = in_memory_campaign(queue);
            let expiry = || match &campaign.queue.lock().expect("queue").job(0).state {
                JobState::Leased { expires_ms, .. } => *expires_ms,
                other => panic!("job not leased: {other:?}"),
            };
            let granted = expiry();
            std::thread::sleep(Duration::from_millis(5));
            heartbeat(&campaign, late, 0);
            assert_eq!(expiry(), granted, "{late} renewed {holder}'s lease");
            heartbeat(&campaign, holder, 0);
            assert!(expiry() > granted, "{holder}'s own beat must renew");
        }
    }

    /// Settling a result folds its engine counters into the controller's
    /// metrics, whichever kind of worker sent it, and banks it in
    /// `done.jsonl` exactly once.
    #[test]
    fn settling_a_result_folds_its_engine_counters_into_the_metrics() {
        let _knob = metrics::KNOB_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        metrics::set_telemetry(true);
        let spec = spec_n(1);
        let result = crate::runner::run(&spec).expect("tiny run");
        let engine = [
            result.engine.events_posted,
            result.engine.events_popped,
            result.engine.skipped_cycles,
            result.engine.stepped_cycles,
        ];
        let counters = || {
            let snapshot = metrics::global().snapshot();
            [
                METRIC_EVENTS_POSTED,
                METRIC_EVENTS_POPPED,
                METRIC_CYCLES_SKIPPED,
                METRIC_CYCLES_STEPPED,
            ]
            .map(|name| snapshot.counters.get(name).copied().unwrap_or(0))
        };
        for identity in ["w0", "remote#1"] {
            let dir = scratch(&format!("engine-{}", identity.replace('#', "-")));
            let done = dir.join("done.jsonl");
            let mut queue = JobQueue::in_memory(QueuePolicy::default());
            queue.submit(&spec, Lane::Normal).expect("submit");
            queue.lease(identity, 0).expect("lease").expect("granted");
            let campaign = in_memory_campaign(queue);
            let before = counters();
            let reply = settle_result(&campaign, &done, identity, 0, &spec, &result);
            assert_eq!(reply, Some(Msg::Settled { owned: true }), "{identity}");
            let after = counters();
            for i in 0..engine.len() {
                assert!(
                    after[i] >= before[i] + engine[i],
                    "{identity}: counter {i} grew {} < {}",
                    after[i] - before[i],
                    engine[i]
                );
            }
            // A duplicate is absorbed: done.jsonl keeps one line.
            let reply = settle_result(&campaign, &done, identity, 0, &spec, &result);
            assert_eq!(reply, Some(Msg::Settled { owned: false }), "{identity}");
            let banked = Journal::new(&done).load().expect("done.jsonl");
            assert_eq!(banked, vec![(spec.clone(), result.clone())], "{identity}");
            std::fs::remove_dir_all(&dir).ok();
        }
        metrics::set_telemetry(false);
    }

    /// A worker that exits 0 without a result frame is a death, charged
    /// and retried until the job is quarantined — never a completion.
    #[test]
    fn clean_exit_without_a_result_frame_is_a_death() {
        let dir = scratch("settle-death");
        let mut cfg = CampaignConfig::new(&dir, "true");
        cfg.workers = 1;
        cfg.max_kills = 2;
        cfg.backoff_base = Duration::from_millis(1);
        let outcome = run_campaign(&[(spec_n(1), Lane::Normal)], &cfg).expect("campaign runs");
        let CampaignOutcome::Complete(report) = outcome else {
            panic!("campaign interrupted");
        };
        assert_eq!((report.done, report.quarantined), (0, 1), "{report:?}");
        let queue = JobQueue::open(&cfg.wal_path(), QueuePolicy::default()).expect("reopen WAL");
        match &queue.job(0).state {
            JobState::Quarantined { detail } => assert!(
                detail.contains("worker exited clean but sent no result frame"),
                "{detail}"
            ),
            other => panic!("job not quarantined: {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
