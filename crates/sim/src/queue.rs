//! The campaign control plane's durable job queue.
//!
//! A [`JobQueue`] shards a spec matrix across lease-holding workers and
//! records **every state transition** in an append-only, CRC-guarded
//! write-ahead log (the campaign WAL). Replaying the WAL rebuilds the
//! exact queue state, so a SIGKILL'd controller resumes its campaign
//! with zero lost and zero double-counted jobs — the durability story
//! the matrix runner's results journal gives *finished* specs, extended
//! to in-flight ones.
//!
//! State machine (every arrow is one WAL record):
//!
//! ```text
//!            submit                lease
//! (absent) ─────────▶ Pending ─────────────▶ Leased
//!                        ▲                     │
//!                        │ release             │ complete / fail
//!                        │ (kill or drain)     ▼
//!                        └──────────────── Done | Failed
//!                                              │
//!                     kills ≥ max_kills        ▼
//!                     ─────────────────▶ Quarantined
//! ```
//!
//! Robustness rules:
//! - **Leases, not assignments.** A worker owns a job only while its
//!   time-bounded lease is fresh; heartbeats renew it, and a stale lease
//!   returns the job to the queue — a hung or vaporized worker can delay
//!   a job but never strand it.
//! - **Poison quarantine.** A job whose worker dies `max_kills` times in
//!   a row is quarantined with its last stderr/diagnostic attached
//!   instead of crash-looping the whole campaign.
//! - **Deterministic backoff + jitter.** Retried jobs wait
//!   `base · 2^(kills−1)` plus an FNV-derived jitter, so a flaky host
//!   neither hot-loops nor synchronizes its retries.
//! - **Trust nothing on hash alone.** WAL records carry the full spec
//!   *and* its FNV-1a hash; replay verifies one against the other and
//!   skips (with a warning) anything that disagrees.
//! - **Single writer.** The WAL file is exclusively flock'd for the
//!   queue's lifetime; a second controller on the same campaign
//!   directory gets the typed [`SimError::Locked`] and exits instead of
//!   interleaving records.
//! - **One source of campaign state.** Every appended record is also
//!   stamped into the queue's [`CampaignLog`] as its [`EventKind`], and
//!   the same transition updates the running [`QueueTally`]. Nothing
//!   outside the queue mirrors a transition: the progress line,
//!   `/status`, the queue gauges and the final report all render from a
//!   [`tally`](JobQueue::tally) read when they are read.

use crate::campaign_events::{CampaignLog, EventKind};
use crate::error::SimError;
use crate::journal::{decode_spec, encode_spec, spec_hash};
use crate::json::{num, s, Json};
use crate::lock::LockedFile;
use crate::metrics::{self, MetricsSnapshot};
use crate::runner::RunSpec;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// The WAL record schema this build writes and replays.
pub const WAL_SCHEMA: u64 = 1;

/// Gauge: jobs currently waiting (pending, possibly in backoff).
pub const METRIC_QUEUE_DEPTH: &str = "mlpwin_queue_depth";
/// Gauge: jobs currently leased to workers.
pub const METRIC_QUEUE_LEASED: &str = "mlpwin_queue_leased";
/// Counter of leases granted (first attempts and retries alike).
pub const METRIC_LEASES_GRANTED: &str = "mlpwin_leases_granted_total";
/// Counter of leases that went stale and returned their job.
pub const METRIC_LEASES_EXPIRED: &str = "mlpwin_leases_expired_total";
/// Counter of jobs re-queued after a worker death.
pub const METRIC_JOBS_RETRIED: &str = "mlpwin_jobs_retried_total";
/// Counter of jobs quarantined as poison.
pub const METRIC_JOBS_QUARANTINED: &str = "mlpwin_jobs_quarantined_total";
/// Counter of orphaned leases released during WAL replay (jobs whose
/// workers died with a previous controller).
pub const METRIC_WAL_REPLAY_RELEASES: &str = "mlpwin_wal_replay_releases_total";
/// Histogram: ms a job waited in pending before each lease grant
/// (enqueue→lease, and re-queue→re-lease after a death or drain).
pub const METRIC_JOB_QUEUE_WAIT_MS: &str = "mlpwin_job_queue_wait_ms";
/// Histogram: ms from a job's last lease grant to its terminal state.
pub const METRIC_JOB_RUN_MS: &str = "mlpwin_job_run_ms";
/// Histogram: ms between successive heartbeat renewals of one lease.
pub const METRIC_HEARTBEAT_GAP_MS: &str = "mlpwin_heartbeat_gap_ms";
/// Gauge family: pending jobs per lane (label `lane`).
pub const METRIC_QUEUE_DEPTH_LANE: &str = "mlpwin_queue_depth_lane";

/// Queue identity of one job.
pub type JobId = u64;

/// Scheduling priority. Lanes drain strictly in order: every pending
/// high-lane job goes out before any normal-lane one, and so on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Lane {
    /// Served first — interactive/resubmitted traffic.
    High,
    /// The default lane.
    Normal,
    /// Bulk/backfill sweeps.
    Low,
}

impl Lane {
    /// All lanes, in service order.
    pub const ALL: [Lane; 3] = [Lane::High, Lane::Normal, Lane::Low];

    /// Stable tag for the WAL and CLIs.
    pub fn tag(self) -> &'static str {
        match self {
            Lane::High => "high",
            Lane::Normal => "normal",
            Lane::Low => "low",
        }
    }

    /// Parses [`tag`](Lane::tag)'s output.
    pub fn from_tag(tag: &str) -> Option<Lane> {
        match tag {
            "high" => Some(Lane::High),
            "normal" => Some(Lane::Normal),
            "low" => Some(Lane::Low),
            _ => None,
        }
    }
}

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub enum JobState {
    /// Waiting for a worker; not schedulable before `not_before_ms`
    /// (retry backoff; zero for fresh jobs).
    Pending {
        /// Earliest schedulable clock reading, in campaign-clock ms.
        not_before_ms: u64,
    },
    /// Owned by a worker until the lease expires or is renewed.
    Leased {
        /// The owning worker's name.
        worker: String,
        /// Campaign-clock ms at which the lease goes stale.
        expires_ms: u64,
    },
    /// Finished with a journaled result.
    Done {
        /// Served from the dedup cache (no simulation this campaign).
        cached: bool,
    },
    /// Finished with a deterministic, typed failure — retrying cannot
    /// help, and the campaign keeps going.
    Failed {
        /// The failure rendering.
        detail: String,
    },
    /// Poison: killed `max_kills` successive workers. Carries the last
    /// death's diagnostics (stderr tail, including any StallSnapshot
    /// the worker printed).
    Quarantined {
        /// The last death's rendering.
        detail: String,
    },
}

impl JobState {
    /// Whether the job needs no further scheduling.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            JobState::Done { .. } | JobState::Failed { .. } | JobState::Quarantined { .. }
        )
    }
}

/// One job: a spec, its lane, and its current state.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Queue identity (dense, in submission order).
    pub id: JobId,
    /// What to simulate.
    pub spec: RunSpec,
    /// The spec's FNV-1a hash (cache key; verified, never trusted).
    pub hash: u64,
    /// Priority lane.
    pub lane: Lane,
    /// Successive worker deaths charged to this job.
    pub kills: u32,
    /// Lifecycle state.
    pub state: JobState,
}

/// Queue tuning: lease length, poison threshold, retry backoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuePolicy {
    /// Lease duration in campaign-clock ms; a heartbeat renews it.
    pub lease_ms: u64,
    /// Worker deaths before a job is quarantined as poison.
    pub max_kills: u32,
    /// Base retry backoff in ms (doubles per kill, plus jitter).
    pub backoff_base_ms: u64,
}

impl Default for QueuePolicy {
    fn default() -> QueuePolicy {
        QueuePolicy {
            lease_ms: 5_000,
            max_kills: 3,
            backoff_base_ms: 100,
        }
    }
}

/// In-memory lifecycle timings of one job, all in campaign-clock ms.
/// Deliberately *not* persisted in the WAL: the campaign clock restarts
/// with the controller, so replayed jobs start timing afresh — the
/// observability plane reports what this controller actually saw.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobTiming {
    /// When the job entered pending most recently (submit, release,
    /// or retry backoff start).
    pub pending_since_ms: u64,
    /// First lease grant, if any.
    pub first_leased_ms: Option<u64>,
    /// Most recent lease grant, if any.
    pub last_leased_ms: Option<u64>,
    /// Most recent heartbeat renewal (set at lease grant too).
    pub last_heartbeat_ms: Option<u64>,
    /// When the job reached a terminal state, if it has.
    pub terminal_ms: Option<u64>,
    /// Lease grants so far (first attempts and retries alike).
    pub attempts: u32,
}

/// What [`JobQueue::death`] decided.
#[derive(Debug, Clone, PartialEq)]
pub enum DeathVerdict {
    /// The job went back to the queue; schedulable at `not_before_ms`.
    Requeued {
        /// Earliest retry, in campaign-clock ms.
        not_before_ms: u64,
    },
    /// The job crossed the poison threshold and is quarantined.
    Quarantined,
}

/// Running job counts per state, updated inside every queue transition
/// (and WAL replay), so reading them never walks the job table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueTally {
    /// Pending jobs (backoff included) per lane, in [`Lane::ALL`] order.
    pub pending: [usize; 3],
    /// Jobs leased to workers.
    pub leased: usize,
    /// Done jobs served from the dedup cache.
    pub cached: usize,
    /// Done jobs that ran a worker.
    pub simulated: usize,
    /// Jobs with a deterministic, typed failure.
    pub failed: usize,
    /// Jobs quarantined as poison.
    pub quarantined: usize,
}

impl QueueTally {
    /// The counter a job in `state` on `lane` belongs to.
    pub(crate) fn slot(&mut self, lane: Lane, state: &JobState) -> &mut usize {
        match state {
            JobState::Pending { .. } => &mut self.pending[lane as usize],
            JobState::Leased { .. } => &mut self.leased,
            JobState::Done { cached: true } => &mut self.cached,
            JobState::Done { cached: false } => &mut self.simulated,
            JobState::Failed { .. } => &mut self.failed,
            JobState::Quarantined { .. } => &mut self.quarantined,
        }
    }

    /// Jobs waiting in every lane.
    pub fn depth(&self) -> usize {
        self.pending.iter().sum()
    }

    /// Jobs finished with a journaled result.
    pub fn done(&self) -> usize {
        self.cached + self.simulated
    }

    /// Jobs that need no further scheduling.
    pub fn terminal(&self) -> usize {
        self.done() + self.failed + self.quarantined
    }

    /// Every job in the queue.
    pub fn jobs(&self) -> usize {
        self.depth() + self.leased + self.terminal()
    }

    /// Sets the queue-shape gauges in `metrics` (a scrape's or flight
    /// record's copy of the registry) from these counts. No-op with
    /// telemetry off, like every other metric write.
    pub fn set_gauges(&self, metrics: &mut MetricsSnapshot) {
        if !metrics::telemetry_enabled() {
            return;
        }
        metrics.gauge_set(METRIC_QUEUE_DEPTH, self.depth() as f64);
        metrics.gauge_set(METRIC_QUEUE_LEASED, self.leased as f64);
        for lane in Lane::ALL {
            metrics.gauge_set(
                metrics::labeled(METRIC_QUEUE_DEPTH_LANE, &[("lane", lane.tag())]),
                self.pending[lane as usize] as f64,
            );
        }
    }
}

/// FNV-1a over a little-endian id/attempt pair: the deterministic
/// jitter source (no clock, no RNG crate).
fn jitter(id: JobId, kills: u32, modulus: u64) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for b in id
        .to_le_bytes()
        .into_iter()
        .chain((kills as u64).to_le_bytes())
    {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash % modulus.max(1)
}

// ------------------------------------------------------------------ WAL

/// One WAL record — exactly one state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A job entered the queue.
    Enqueue {
        /// The new job's id.
        job: JobId,
        /// Full spec (hash is derived and verified, never stored alone).
        spec: RunSpec,
        /// Priority lane.
        lane: Lane,
    },
    /// A worker took the job's lease.
    Lease {
        /// The leased job.
        job: JobId,
        /// The owning worker.
        worker: String,
    },
    /// The job returned to pending.
    Release {
        /// The released job.
        job: JobId,
        /// Why (lease expiry, worker death, graceful drain).
        reason: String,
        /// Whether this release charges a worker death to the job.
        kill: bool,
    },
    /// The job finished with a journaled result.
    Done {
        /// The finished job.
        job: JobId,
        /// Served from the dedup cache.
        cached: bool,
    },
    /// The job failed deterministically (typed error).
    Failed {
        /// The failed job.
        job: JobId,
        /// The failure rendering.
        detail: String,
    },
    /// The job was quarantined as poison.
    Quarantine {
        /// The quarantined job.
        job: JobId,
        /// Last death's diagnostics.
        detail: String,
    },
}

impl WalRecord {
    fn encode(&self) -> Json {
        let obj = |pairs: Vec<(&str, Json)>| {
            Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        match self {
            WalRecord::Enqueue { job, spec, lane } => obj(vec![
                ("op", s("enqueue")),
                ("job", num(*job)),
                ("lane", s(lane.tag())),
                ("hash", s(format!("{:016x}", spec_hash(spec)))),
                ("spec", encode_spec(spec)),
            ]),
            WalRecord::Lease { job, worker } => obj(vec![
                ("op", s("lease")),
                ("job", num(*job)),
                ("worker", s(worker.clone())),
            ]),
            WalRecord::Release { job, reason, kill } => obj(vec![
                ("op", s("release")),
                ("job", num(*job)),
                ("reason", s(reason.clone())),
                ("kill", Json::Bool(*kill)),
            ]),
            WalRecord::Done { job, cached } => obj(vec![
                ("op", s("done")),
                ("job", num(*job)),
                ("cached", Json::Bool(*cached)),
            ]),
            WalRecord::Failed { job, detail } => obj(vec![
                ("op", s("failed")),
                ("job", num(*job)),
                ("detail", s(detail.clone())),
            ]),
            WalRecord::Quarantine { job, detail } => obj(vec![
                ("op", s("quarantine")),
                ("job", num(*job)),
                ("detail", s(detail.clone())),
            ]),
        }
    }

    fn decode(v: &Json) -> Option<WalRecord> {
        let job = v.get("job")?.as_u64()?;
        match v.get("op")?.as_str()? {
            "enqueue" => {
                let spec = decode_spec(v.get("spec")?)?;
                // Full-spec verification of the stored hash: a record
                // whose hash and spec disagree is corruption (or a
                // hand-edit) and must not be replayed.
                let recorded = v.get("hash")?.as_str()?;
                if recorded != format!("{:016x}", spec_hash(&spec)) {
                    return None;
                }
                Some(WalRecord::Enqueue {
                    job,
                    spec,
                    lane: Lane::from_tag(v.get("lane")?.as_str()?)?,
                })
            }
            "lease" => Some(WalRecord::Lease {
                job,
                worker: v.get("worker")?.as_str()?.to_string(),
            }),
            "release" => Some(WalRecord::Release {
                job,
                reason: v.get("reason")?.as_str()?.to_string(),
                kill: matches!(v.get("kill")?, Json::Bool(true)),
            }),
            "done" => Some(WalRecord::Done {
                job,
                cached: matches!(v.get("cached")?, Json::Bool(true)),
            }),
            "failed" => Some(WalRecord::Failed {
                job,
                detail: v.get("detail")?.as_str()?.to_string(),
            }),
            "quarantine" => Some(WalRecord::Quarantine {
                job,
                detail: v.get("detail")?.as_str()?.to_string(),
            }),
            _ => None,
        }
    }
}

/// Encodes one WAL line (no trailing newline): schema, sequence number,
/// CRC-32 of the record body, and the body itself.
pub fn encode_wal_line(seq: u64, rec: &WalRecord) -> String {
    let body = rec.encode();
    let crc = mlpwin_isa::snap::crc32(body.encode().as_bytes());
    Json::Obj(
        [
            ("schema".to_string(), num(WAL_SCHEMA)),
            ("seq".to_string(), num(seq)),
            ("crc".to_string(), s(format!("{crc:08x}"))),
            ("rec".to_string(), body),
        ]
        .into_iter()
        .collect(),
    )
    .encode()
}

/// Decodes one WAL line: schema and CRC are verified (the CRC covers
/// the canonical re-encoding of the record body, which is stable
/// because objects encode with sorted keys). `None` for anything
/// malformed — a torn tail line from a SIGKILL merely vanishes.
pub fn decode_wal_line(line: &str) -> Option<(u64, WalRecord)> {
    let v = Json::parse(line).ok()?;
    if v.get("schema")?.as_u64()? != WAL_SCHEMA {
        return None;
    }
    let seq = v.get("seq")?.as_u64()?;
    let body = v.get("rec")?;
    let recorded = v.get("crc")?.as_str()?;
    let crc = mlpwin_isa::snap::crc32(body.encode().as_bytes());
    if recorded != format!("{crc:08x}") {
        return None;
    }
    Some((seq, WalRecord::decode(body)?))
}

impl WalRecord {
    /// The job the record moves.
    fn job(&self) -> JobId {
        match self {
            WalRecord::Enqueue { job, .. }
            | WalRecord::Lease { job, .. }
            | WalRecord::Release { job, .. }
            | WalRecord::Done { job, .. }
            | WalRecord::Failed { job, .. }
            | WalRecord::Quarantine { job, .. } => *job,
        }
    }

    /// The state the record moves its job to. `deadline` is a lease's
    /// expiry or a release's backoff end; replay passes zero, since the
    /// campaign clock restarts with the controller.
    fn state(&self, deadline: u64) -> JobState {
        match self {
            WalRecord::Enqueue { .. } => JobState::Pending { not_before_ms: 0 },
            WalRecord::Lease { worker, .. } => JobState::Leased {
                worker: worker.clone(),
                expires_ms: deadline,
            },
            WalRecord::Release { .. } => JobState::Pending {
                not_before_ms: deadline,
            },
            WalRecord::Done { cached, .. } => JobState::Done { cached: *cached },
            WalRecord::Failed { detail, .. } => JobState::Failed {
                detail: detail.clone(),
            },
            WalRecord::Quarantine { detail, .. } => JobState::Quarantined {
                detail: detail.clone(),
            },
        }
    }

    /// The record as the campaign event stream shows it. `holder` is
    /// the lease holder at the transition (`""` for none).
    fn event(&self, holder: String) -> EventKind {
        match self {
            WalRecord::Enqueue { lane, .. } => EventKind::Submitted { lane: lane.tag() },
            WalRecord::Lease { worker, .. } => EventKind::Leased {
                worker: worker.clone(),
            },
            WalRecord::Release { reason, kill, .. } => EventKind::Released {
                worker: holder,
                reason: reason.clone(),
                kill: *kill,
            },
            WalRecord::Done { cached, .. } => EventKind::Done {
                worker: holder,
                cached: *cached,
            },
            WalRecord::Failed { detail, .. } => EventKind::Failed {
                worker: holder,
                detail: detail.clone(),
            },
            WalRecord::Quarantine { detail, .. } => EventKind::Quarantined {
                worker: holder,
                detail: detail.clone(),
            },
        }
    }

    /// Whether losing this record to a crash could lose or double-count
    /// work. `Enqueue` defines the job set, and the terminal records
    /// (`Done`/`Failed`/`Quarantine`) are the claims `finalize` and the
    /// kill budget rest on — those must hit the platter before the
    /// in-memory transition is believed. A torn-off `Lease` or
    /// `Release` suffix merely forgets who held what: replay releases
    /// orphaned leases anyway (without charging a kill), so skipping
    /// their fsync trades nothing but a little lease accounting for an
    /// append path off the fsync cliff.
    fn durable(&self) -> bool {
        !matches!(self, WalRecord::Lease { .. } | WalRecord::Release { .. })
    }
}

// ---------------------------------------------------------------- queue

/// The durable, lease-based job queue (see the module docs for the
/// state machine). All methods take the campaign clock as a plain
/// `now_ms` reading, so tests drive time deterministically.
#[derive(Debug)]
pub struct JobQueue {
    policy: QueuePolicy,
    jobs: Vec<Job>,
    timings: Vec<JobTiming>,
    by_spec: HashMap<RunSpec, JobId>,
    tally: QueueTally,
    log: Arc<CampaignLog>,
    /// The exclusively locked WAL (`None` in memory) and the sequence
    /// number of its last record.
    wal: Option<LockedFile>,
    seq: u64,
}

impl JobQueue {
    /// A purely in-memory queue (tests, dry runs) — same state machine,
    /// no durability.
    pub fn in_memory(policy: QueuePolicy) -> JobQueue {
        JobQueue {
            policy,
            jobs: Vec::new(),
            timings: Vec::new(),
            by_spec: HashMap::new(),
            tally: QueueTally::default(),
            log: Arc::new(CampaignLog::new()),
            wal: None,
            seq: 0,
        }
    }

    /// Opens (or creates) the WAL at `path`, takes its exclusive lock,
    /// and replays every intact record into a fresh queue. Jobs that
    /// were `Leased` at the crash are released back to pending — their
    /// workers died with the previous controller — without charging a
    /// kill.
    ///
    /// # Errors
    ///
    /// [`SimError::Locked`] when another controller holds the WAL, or
    /// I/O failures reading/appending it.
    pub fn open(path: &Path, policy: QueuePolicy) -> Result<JobQueue, SimError> {
        let locked = LockedFile::try_exclusive(path)?;
        let mut queue = JobQueue::in_memory(policy);
        crate::lock::replay_lines(path, |n, line| match line.and_then(decode_wal_line) {
            Some((line_seq, rec)) => {
                queue.seq = queue.seq.max(line_seq);
                if let Err(detail) = queue.apply(&rec, 0) {
                    eprintln!(
                        "warning: WAL {}:{n}: impossible transition ({detail}); skipped",
                        path.display()
                    );
                }
            }
            None => eprintln!(
                "warning: WAL {}:{n}: corrupt or unknown-schema record skipped",
                path.display()
            ),
        })
        .map_err(|e| SimError::Campaign {
            detail: format!("WAL {} read failed: {e}", path.display()),
        })?;
        queue.wal = Some(locked);
        // Orphaned leases: the old controller's workers are gone. Put
        // the jobs back (logged, so the next replay agrees) without
        // counting a kill — the worker may have been perfectly healthy.
        let orphaned: Vec<JobId> = queue
            .jobs
            .iter()
            .filter(|j| matches!(j.state, JobState::Leased { .. }))
            .map(|j| j.id)
            .collect();
        for id in orphaned {
            queue.transition(
                WalRecord::Release {
                    job: id,
                    reason: "controller restart".to_string(),
                    kill: false,
                },
                0,
                0,
            )?;
            metrics::counter_add(METRIC_WAL_REPLAY_RELEASES, 1);
        }
        Ok(queue)
    }

    /// Moves `rec`'s job to the state the record names — the one place
    /// job state, kill counts and the tally change, shared by live
    /// transitions and replay. `deadline` as in [`WalRecord::state`].
    fn apply(&mut self, rec: &WalRecord, deadline: u64) -> Result<(), String> {
        if let WalRecord::Enqueue { job, spec, lane } = rec {
            if *job != self.jobs.len() as u64 {
                return Err(format!(
                    "enqueue of job {job} but next id is {}",
                    self.jobs.len()
                ));
            }
            self.by_spec.insert(spec.clone(), *job);
            self.jobs.push(Job {
                id: *job,
                spec: spec.clone(),
                hash: spec_hash(spec),
                lane: *lane,
                kills: 0,
                state: rec.state(deadline),
            });
            self.timings.push(JobTiming::default());
            self.tally.pending[*lane as usize] += 1;
            return Ok(());
        }
        let id = rec.job();
        let Some(job) = self.jobs.get_mut(id as usize) else {
            return Err(format!("record for unknown job {id}"));
        };
        // The replayed kill count comes from these records, so a live
        // death charges its kill here too, never before the append.
        if matches!(
            rec,
            WalRecord::Release { kill: true, .. } | WalRecord::Quarantine { .. }
        ) {
            job.kills += 1;
        }
        let state = rec.state(deadline);
        *self.tally.slot(job.lane, &job.state) -= 1;
        *self.tally.slot(job.lane, &state) += 1;
        job.state = state;
        Ok(())
    }

    /// Logs (when durable), stamps into the event log and applies one
    /// transition.
    fn transition(&mut self, rec: WalRecord, deadline: u64, now_ms: u64) -> Result<(), SimError> {
        if let Some(wal) = &mut self.wal {
            self.seq += 1;
            wal.append_line(&encode_wal_line(self.seq, &rec), rec.durable())
                .map_err(|e| SimError::Campaign {
                    detail: format!("WAL {} append failed: {e}", wal.path().display()),
                })?;
        }
        let id = rec.job();
        let holder = match self.jobs.get(id as usize).map(|j| &j.state) {
            Some(JobState::Leased { worker, .. }) => worker.clone(),
            _ => String::new(),
        };
        self.log.record(now_ms, Some(id), rec.event(holder));
        self.apply(&rec, deadline)
            .map_err(|detail| SimError::Campaign { detail })
    }

    /// Submits one spec. Identical specs coalesce into one job (the
    /// existing id comes back); the dedup *result* cache is the
    /// [`CacheStore`](crate::cachestore::CacheStore)'s business. Every
    /// non-terminal job returned is logged as `submitted` at
    /// campaign-clock zero — a restarted controller's resubmission
    /// opens a fresh queued phase.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn submit(&mut self, spec: &RunSpec, lane: Lane) -> Result<JobId, SimError> {
        if let Some(&id) = self.by_spec.get(spec) {
            let job = &self.jobs[id as usize];
            if !job.state.is_terminal() {
                let lane = job.lane.tag();
                self.log.record(0, Some(id), EventKind::Submitted { lane });
            }
            return Ok(id);
        }
        let id = self.jobs.len() as JobId;
        let rec = WalRecord::Enqueue {
            job: id,
            spec: spec.clone(),
            lane,
        };
        self.transition(rec, 0, 0)?;
        Ok(id)
    }

    /// Grants the next lease: highest lane first, FIFO within a lane,
    /// skipping jobs still in backoff. `None` when nothing is ready.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn lease(&mut self, worker: &str, now_ms: u64) -> Result<Option<Job>, SimError> {
        let mut pick: Option<JobId> = None;
        for lane in Lane::ALL {
            let candidate = self.jobs.iter().find(|j| {
                j.lane == lane
                    && matches!(&j.state, JobState::Pending { not_before_ms } if *not_before_ms <= now_ms)
            });
            if let Some(job) = candidate {
                pick = Some(job.id);
                break;
            }
        }
        let Some(id) = pick else { return Ok(None) };
        let rec = WalRecord::Lease {
            job: id,
            worker: worker.to_string(),
        };
        self.transition(rec, now_ms + self.policy.lease_ms, now_ms)?;
        let timing = &mut self.timings[id as usize];
        metrics::observe(
            METRIC_JOB_QUEUE_WAIT_MS,
            now_ms.saturating_sub(timing.pending_since_ms),
        );
        timing.first_leased_ms.get_or_insert(now_ms);
        timing.last_leased_ms = Some(now_ms);
        timing.last_heartbeat_ms = Some(now_ms);
        timing.attempts += 1;
        metrics::counter_add(METRIC_LEASES_GRANTED, 1);
        Ok(Some(self.jobs[id as usize].clone()))
    }

    /// Renews a lease (a worker heartbeat arrived). A no-op for jobs
    /// not currently leased — a late heartbeat from a worker whose
    /// lease already expired must not resurrect ownership.
    pub fn renew(&mut self, id: JobId, now_ms: u64) {
        if let Some(job) = self.jobs.get_mut(id as usize) {
            if let JobState::Leased { expires_ms, .. } = &mut job.state {
                *expires_ms = now_ms + self.policy.lease_ms;
                let timing = &mut self.timings[id as usize];
                if let Some(prev) = timing.last_heartbeat_ms {
                    metrics::observe(METRIC_HEARTBEAT_GAP_MS, now_ms.saturating_sub(prev));
                }
                timing.last_heartbeat_ms = Some(now_ms);
            }
        }
    }

    /// Returns every job whose lease has gone stale to the queue,
    /// charging a kill to each (a worker that stops heartbeating is
    /// indistinguishable from a dead one). Quarantines jobs that cross
    /// the poison threshold. Returns the affected ids.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn expire_stale(&mut self, now_ms: u64) -> Result<Vec<JobId>, SimError> {
        let stale: Vec<JobId> = self
            .jobs
            .iter()
            .filter(
                |j| matches!(&j.state, JobState::Leased { expires_ms, .. } if *expires_ms < now_ms),
            )
            .map(|j| j.id)
            .collect();
        for &id in &stale {
            // The controller finds an expiry; no worker reports it, so
            // its event names none.
            if let JobState::Leased { worker, .. } = &mut self.jobs[id as usize].state {
                worker.clear();
            }
            metrics::counter_add(METRIC_LEASES_EXPIRED, 1);
            self.death(id, "lease expired (heartbeat lost)", now_ms)?;
        }
        Ok(stale)
    }

    /// Records a worker death against a leased (or pending-after-expiry)
    /// job: requeue with backoff, or quarantine past the threshold.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn death(
        &mut self,
        id: JobId,
        detail: &str,
        now_ms: u64,
    ) -> Result<DeathVerdict, SimError> {
        let kills = self.jobs[id as usize].kills + 1;
        if kills >= self.policy.max_kills {
            let rec = WalRecord::Quarantine {
                job: id,
                detail: detail.to_string(),
            };
            self.transition(rec, 0, now_ms)?;
            self.settle_timing(id, now_ms);
            metrics::counter_add(METRIC_JOBS_QUARANTINED, 1);
            return Ok(DeathVerdict::Quarantined);
        }
        let exp = kills.saturating_sub(1).min(10);
        let base = self.policy.backoff_base_ms;
        let not_before_ms = now_ms + base * (1u64 << exp) + jitter(id, kills, base.max(1));
        let rec = WalRecord::Release {
            job: id,
            reason: detail.to_string(),
            kill: true,
        };
        self.transition(rec, not_before_ms, now_ms)?;
        self.timings[id as usize].pending_since_ms = now_ms;
        metrics::counter_add(METRIC_JOBS_RETRIED, 1);
        Ok(DeathVerdict::Requeued { not_before_ms })
    }

    /// Stamps a terminal transition into the timing table and observes
    /// the lease→terminal run latency.
    fn settle_timing(&mut self, id: JobId, now_ms: u64) {
        let timing = &mut self.timings[id as usize];
        timing.terminal_ms = Some(now_ms);
        if let Some(leased) = timing.last_leased_ms {
            metrics::observe(METRIC_JOB_RUN_MS, now_ms.saturating_sub(leased));
        }
    }

    /// Returns a leased job to pending without charging a kill — the
    /// graceful-drain path (worker interrupted by SIGINT/SIGTERM).
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn release(&mut self, id: JobId, reason: &str, now_ms: u64) -> Result<(), SimError> {
        let rec = WalRecord::Release {
            job: id,
            reason: reason.to_string(),
            kill: false,
        };
        self.transition(rec, 0, now_ms)?;
        self.timings[id as usize].pending_since_ms = now_ms;
        Ok(())
    }

    /// Marks a job done (result journaled). `cached` records whether the
    /// dedup cache, rather than a simulation, served it.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn complete(&mut self, id: JobId, cached: bool, now_ms: u64) -> Result<(), SimError> {
        self.transition(WalRecord::Done { job: id, cached }, 0, now_ms)?;
        self.settle_timing(id, now_ms);
        Ok(())
    }

    /// Marks a job failed with a deterministic, typed error.
    ///
    /// # Errors
    ///
    /// WAL append failures.
    pub fn fail(&mut self, id: JobId, detail: &str, now_ms: u64) -> Result<(), SimError> {
        let rec = WalRecord::Failed {
            job: id,
            detail: detail.to_string(),
        };
        self.transition(rec, 0, now_ms)?;
        self.settle_timing(id, now_ms);
        Ok(())
    }

    /// One job's in-memory lifecycle timings.
    pub fn timing(&self, id: JobId) -> &JobTiming {
        &self.timings[id as usize]
    }

    /// The job table, in submission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// One job by id.
    pub fn job(&self, id: JobId) -> &Job {
        &self.jobs[id as usize]
    }

    /// The queue policy in force.
    pub fn policy(&self) -> &QueuePolicy {
        &self.policy
    }

    /// The running per-state job counts.
    pub fn tally(&self) -> QueueTally {
        self.tally
    }

    /// Terminal jobs this controller leased more than once — the
    /// progress line's retried count. Walks the job table, so read it
    /// only when a line is rendered.
    pub fn retried(&self) -> usize {
        self.jobs
            .iter()
            .zip(&self.timings)
            .filter(|(job, timing)| job.state.is_terminal() && timing.attempts > 1)
            .count()
    }

    /// The event log every transition is stamped into. Campaign-scoped
    /// events (controller start, drain, fatal) go here too.
    pub fn log(&self) -> &Arc<CampaignLog> {
        &self.log
    }

    /// Whether every job is done, failed, or quarantined.
    pub fn all_terminal(&self) -> bool {
        self.tally.terminal() == self.jobs.len()
    }

    /// The earliest campaign-clock ms at which a pending job becomes
    /// schedulable; `None` when nothing is pending.
    pub fn next_ready_ms(&self) -> Option<u64> {
        self.jobs
            .iter()
            .filter_map(|j| match &j.state {
                JobState::Pending { not_before_ms } => Some(*not_before_ms),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimModel;
    use std::path::PathBuf;

    fn spec(profile: &str, seed: u64) -> RunSpec {
        let mut s = RunSpec::new(profile, SimModel::Base).with_budget(1_000, 1_000);
        s.seed = seed;
        s
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlpwin-queue-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn lanes_drain_in_priority_order_fifo_within() {
        let mut q = JobQueue::in_memory(QueuePolicy::default());
        let low = q.submit(&spec("gcc", 1), Lane::Low).expect("submit");
        let n1 = q.submit(&spec("gcc", 2), Lane::Normal).expect("submit");
        let hi = q.submit(&spec("gcc", 3), Lane::High).expect("submit");
        let n2 = q.submit(&spec("gcc", 4), Lane::Normal).expect("submit");
        let order: Vec<JobId> = std::iter::from_fn(|| {
            q.lease("w", 0).expect("lease").map(|j| {
                q.complete(j.id, false, 0).expect("complete");
                j.id
            })
        })
        .collect();
        assert_eq!(order, vec![hi, n1, n2, low]);
        assert!(q.all_terminal());
    }

    #[test]
    fn identical_specs_coalesce() {
        let mut q = JobQueue::in_memory(QueuePolicy::default());
        let a = q.submit(&spec("mcf", 1), Lane::Normal).expect("submit");
        let b = q.submit(&spec("mcf", 1), Lane::Normal).expect("submit");
        assert_eq!(a, b);
        assert_eq!(q.jobs().len(), 1);
    }

    #[test]
    fn stale_leases_return_with_backoff_then_quarantine() {
        let policy = QueuePolicy {
            lease_ms: 100,
            max_kills: 2,
            backoff_base_ms: 50,
        };
        let mut q = JobQueue::in_memory(policy);
        let id = q.submit(&spec("milc", 1), Lane::Normal).expect("submit");
        let j = q.lease("w0", 0).expect("lease").expect("granted");
        assert_eq!(j.id, id);
        // Renewal keeps it alive past the nominal expiry...
        q.renew(id, 90);
        assert!(q.expire_stale(150).expect("expire").is_empty());
        // ...but silence past the renewed lease does not.
        let stale = q.expire_stale(250).expect("expire");
        assert_eq!(stale, vec![id]);
        match &q.job(id).state {
            JobState::Pending { not_before_ms } => assert!(*not_before_ms > 250),
            other => panic!("expected backoff pending, got {other:?}"),
        }
        // Not schedulable during backoff; schedulable after.
        assert!(q.lease("w1", 251).expect("lease").is_none());
        let j = q.lease("w1", 10_000).expect("lease").expect("granted");
        assert_eq!(j.id, id);
        // Second death crosses max_kills = 2: quarantined.
        let verdict = q.death(id, "abort (chaos)", 10_001).expect("death");
        assert_eq!(verdict, DeathVerdict::Quarantined);
        assert!(matches!(
            &q.job(id).state,
            JobState::Quarantined { detail } if detail.contains("chaos")
        ));
        assert!(q.all_terminal());
    }

    #[test]
    fn late_heartbeat_does_not_resurrect_an_expired_lease() {
        let mut q = JobQueue::in_memory(QueuePolicy {
            lease_ms: 10,
            max_kills: 5,
            backoff_base_ms: 1,
        });
        let id = q.submit(&spec("gcc", 1), Lane::Normal).expect("submit");
        q.lease("w0", 0).expect("lease").expect("granted");
        q.expire_stale(100).expect("expire");
        q.renew(id, 101); // the zombie worker's heartbeat
        assert!(
            matches!(q.job(id).state, JobState::Pending { .. }),
            "a dead lease must stay dead"
        );
    }

    #[test]
    fn wal_replay_rebuilds_the_exact_state() {
        let dir = scratch("replay");
        let wal = dir.join("campaign.wal");
        let (jobs_before, kills_before);
        {
            let mut q = JobQueue::open(&wal, QueuePolicy::default()).expect("open");
            q.submit(&spec("gcc", 1), Lane::Normal).expect("submit");
            q.submit(&spec("mcf", 2), Lane::High).expect("submit");
            q.submit(&spec("milc", 3), Lane::Low).expect("submit");
            let j = q.lease("w0", 0).expect("lease").expect("granted");
            q.complete(j.id, false, 1).expect("complete");
            let j = q.lease("w0", 1).expect("lease").expect("granted");
            q.death(j.id, "killed", 2).expect("death");
            let j = q.lease("w1", 10_000).expect("lease").expect("granted");
            jobs_before = j.id;
            kills_before = q.job(j.id).kills;
            // Queue dropped here with one job still leased: the
            // controller "crashed".
        }
        let q = JobQueue::open(&wal, QueuePolicy::default()).expect("reopen");
        assert_eq!(q.jobs().len(), 3);
        // The done job stays done, never re-runnable.
        assert!(matches!(
            q.jobs()[1].state,
            JobState::Done { cached: false }
        ));
        // The leased-at-crash job is pending again, kill count intact.
        let j = q.job(jobs_before);
        assert!(matches!(j.state, JobState::Pending { .. }));
        assert_eq!(j.kills, kills_before);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn second_controller_on_the_same_wal_fails_fast() {
        let dir = scratch("locked");
        let wal = dir.join("campaign.wal");
        let _held = JobQueue::open(&wal, QueuePolicy::default()).expect("first controller");
        match JobQueue::open(&wal, QueuePolicy::default()) {
            Err(SimError::Locked { .. }) => {}
            other => panic!("expected Locked, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_records_are_skipped_not_fatal() {
        let dir = scratch("torn");
        let wal = dir.join("campaign.wal");
        {
            let mut q = JobQueue::open(&wal, QueuePolicy::default()).expect("open");
            q.submit(&spec("gcc", 1), Lane::Normal).expect("submit");
            q.submit(&spec("mcf", 2), Lane::Normal).expect("submit");
        }
        // Simulate a SIGKILL mid-append: truncate the last line.
        let text = std::fs::read_to_string(&wal).expect("read");
        let cut = text.len() - text.len() / 4;
        std::fs::write(&wal, &text[..cut]).expect("truncate");
        {
            let mut q = JobQueue::open(&wal, QueuePolicy::default()).expect("reopen");
            assert_eq!(q.jobs().len(), 1, "the torn enqueue re-runs, nothing dies");
            // The first record after the fragment must not be glued to
            // it: resubmit the torn job and run both to Done.
            q.submit(&spec("mcf", 2), Lane::Normal).expect("resubmit");
            for now in 0..2 {
                let j = q.lease("w0", now).expect("lease").expect("granted");
                q.complete(j.id, false, now).expect("complete");
            }
        }
        let q = JobQueue::open(&wal, QueuePolicy::default()).expect("second reopen");
        assert_eq!(q.jobs().len(), 2, "the resubmitted job survives replay");
        for job in q.jobs() {
            assert!(
                matches!(job.state, JobState::Done { cached: false }),
                "job {} replayed to {:?}",
                job.id,
                job.state
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_hash_invalidates_an_enqueue_record() {
        let good = encode_wal_line(
            1,
            &WalRecord::Enqueue {
                job: 0,
                spec: spec("gcc", 1),
                lane: Lane::Normal,
            },
        );
        assert!(decode_wal_line(&good).is_some());
        // Hand-build a record body whose stored hash disagrees with its
        // spec, then sign it with a *valid* CRC: the CRC guards bytes,
        // but replay must still reject the hash/spec mismatch.
        let mut v = match Json::parse(&good).expect("json") {
            Json::Obj(m) => m,
            other => panic!("line is an object, got {other:?}"),
        };
        let body = match v.remove("rec").expect("rec") {
            Json::Obj(mut m) => {
                m.insert("hash".to_string(), s("00000000deadbeef"));
                Json::Obj(m)
            }
            other => panic!("rec is an object, got {other:?}"),
        };
        let crc = mlpwin_isa::snap::crc32(body.encode().as_bytes());
        v.insert("crc".to_string(), s(format!("{crc:08x}")));
        v.insert("rec".to_string(), body);
        let bad = Json::Obj(v).encode();
        assert!(
            decode_wal_line(&bad).is_none(),
            "hash/spec disagreement must not replay: {bad}"
        );
    }

    #[test]
    fn timings_track_the_lifecycle() {
        let mut q = JobQueue::in_memory(QueuePolicy::default());
        let id = q.submit(&spec("gcc", 1), Lane::Normal).expect("submit");
        assert_eq!(*q.timing(id), JobTiming::default());
        q.lease("w0", 40).expect("lease").expect("granted");
        let t = q.timing(id);
        assert_eq!(t.first_leased_ms, Some(40));
        assert_eq!(t.last_heartbeat_ms, Some(40));
        assert_eq!(t.attempts, 1);
        q.renew(id, 70);
        assert_eq!(q.timing(id).last_heartbeat_ms, Some(70));
        q.death(id, "boom", 90).expect("death");
        assert_eq!(q.timing(id).pending_since_ms, 90, "wait restarts at death");
        q.lease("w1", 10_000).expect("lease").expect("granted");
        q.complete(id, false, 10_500).expect("complete");
        let t = q.timing(id);
        assert_eq!(t.attempts, 2);
        assert_eq!(t.first_leased_ms, Some(40), "first lease is sticky");
        assert_eq!(t.last_leased_ms, Some(10_000));
        assert_eq!(t.terminal_ms, Some(10_500));
    }

    #[test]
    fn backoff_grows_and_jitter_is_deterministic() {
        let policy = QueuePolicy {
            lease_ms: 10,
            max_kills: 10,
            backoff_base_ms: 100,
        };
        let mut q = JobQueue::in_memory(policy);
        let id = q.submit(&spec("gcc", 1), Lane::Normal).expect("submit");
        let mut delays = Vec::new();
        for round in 0..4 {
            let now = round * 1_000_000;
            q.lease("w", now).expect("lease").expect("granted");
            match q.death(id, "boom", now).expect("death") {
                DeathVerdict::Requeued { not_before_ms } => delays.push(not_before_ms - now),
                DeathVerdict::Quarantined => panic!("threshold is 10"),
            }
        }
        for pair in delays.windows(2) {
            assert!(pair[1] > pair[0], "backoff must grow: {delays:?}");
        }
        assert_eq!(jitter(7, 3, 100), jitter(7, 3, 100), "jitter is a pure fn");
        assert!(jitter(7, 3, 100) < 100);
    }
}
