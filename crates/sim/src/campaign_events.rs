//! The campaign event log: job-lifecycle spans and the crash flight
//! recorder behind the observability plane.
//!
//! Every control-plane transition ([`EventKind`]) lands in a bounded
//! in-memory ring ([`CampaignLog`]) stamped with the campaign clock.
//! The job queue is the only producer of job-scoped events: it stamps
//! each WAL record it appends (see [`JobQueue`](crate::queue::JobQueue));
//! the controller adds only campaign-scoped ones (start, drain, fatal).
//! Three consumers read it:
//!
//! - the `/jobs/<id>` endpoint attaches a job's events to its JSON
//!   lifecycle view;
//! - [`derive_spans`] folds the stream into per-job phase spans
//!   (queued, attempt N, cache-hit) that
//!   [`chrome_trace::campaign_trace_document`](crate::chrome_trace::campaign_trace_document)
//!   renders as a Chrome trace — one track per worker;
//! - [`write_flight_record`] dumps the last N events plus a metrics
//!   snapshot and the queue state to `flightrec/` when something dies
//!   (worker quarantine, supervisor kill, controller panic/signal), so
//!   a post-mortem never starts from a bare WAL.
//!
//! The ring is fixed-capacity ([`EVENT_CAPACITY`]) and all recording is
//! a short mutex-guarded push — control-plane rate, never the
//! simulation hot path. When the ring wraps, the oldest events drop and
//! [`CampaignLog::dropped`] counts them, so consumers can say "history
//! truncated" instead of silently lying.

use crate::error::SimError;
use crate::json::{num, obj, s, Json};
use crate::lock::write_atomic;
use crate::queue::JobId;
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Ring capacity: events kept for `/jobs/<id>`, traces and dumps.
pub const EVENT_CAPACITY: usize = 4096;

/// Flight-record files kept per campaign before rotation.
pub const FLIGHTREC_KEEP: usize = 16;

/// Schema stamp inside every flight-record document.
pub const FLIGHTREC_SCHEMA: u64 = 1;

/// One control-plane transition, as the observability plane sees it.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A job entered the queue.
    Submitted {
        /// The job's lane tag.
        lane: &'static str,
    },
    /// A worker took the job's lease.
    Leased {
        /// The owning worker.
        worker: String,
    },
    /// The job went back to pending (drain, death, lease expiry).
    Released {
        /// The worker that held it ("" when released by the controller).
        worker: String,
        /// Why.
        reason: String,
        /// Whether the release charged a worker death.
        kill: bool,
    },
    /// The job finished with a journaled result.
    Done {
        /// The worker that finished it ("" for submit-time cache hits).
        worker: String,
        /// Served from the cache rather than simulated.
        cached: bool,
    },
    /// The job failed deterministically.
    Failed {
        /// The worker that observed the failure.
        worker: String,
        /// The failure rendering.
        detail: String,
    },
    /// The job was quarantined as poison.
    Quarantined {
        /// The worker whose death crossed the threshold.
        worker: String,
        /// The last death's rendering.
        detail: String,
    },
    /// The controller started its worker pool.
    ControllerStart {
        /// Jobs in the campaign after dedup.
        jobs: usize,
    },
    /// A graceful drain began (SIGINT/SIGTERM).
    Interrupted,
    /// A fatal control-plane error aborted the campaign.
    Fatal {
        /// The error rendering.
        detail: String,
    },
}

impl EventKind {
    /// Stable tag for JSON and trace names.
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::Submitted { .. } => "submitted",
            EventKind::Leased { .. } => "leased",
            EventKind::Released { .. } => "released",
            EventKind::Done { .. } => "done",
            EventKind::Failed { .. } => "failed",
            EventKind::Quarantined { .. } => "quarantined",
            EventKind::ControllerStart { .. } => "controller-start",
            EventKind::Interrupted => "interrupted",
            EventKind::Fatal { .. } => "fatal",
        }
    }
}

/// One stamped event.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignEvent {
    /// Monotonic sequence number (never reused, survives ring wrap).
    pub seq: u64,
    /// Campaign-clock milliseconds.
    pub at_ms: u64,
    /// The job involved, when the event is job-scoped.
    pub job: Option<JobId>,
    /// What happened.
    pub kind: EventKind,
}

impl CampaignEvent {
    /// The event as a flat JSON object.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("seq", num(self.seq)),
            ("at_ms", num(self.at_ms)),
            ("kind", s(self.kind.tag())),
            (
                "job",
                match self.job {
                    Some(id) => num(id),
                    None => Json::Null,
                },
            ),
        ];
        match &self.kind {
            EventKind::Submitted { lane } => pairs.push(("lane", s(*lane))),
            EventKind::Interrupted => {}
            EventKind::Leased { worker } => pairs.push(("worker", s(worker.clone()))),
            EventKind::Released {
                worker,
                reason,
                kill,
            } => {
                pairs.push(("worker", s(worker.clone())));
                pairs.push(("reason", s(reason.clone())));
                pairs.push(("kill", Json::Bool(*kill)));
            }
            EventKind::Done { worker, cached } => {
                pairs.push(("worker", s(worker.clone())));
                pairs.push(("cached", Json::Bool(*cached)));
            }
            EventKind::Failed { worker, detail } | EventKind::Quarantined { worker, detail } => {
                pairs.push(("worker", s(worker.clone())));
                pairs.push(("detail", s(detail.clone())));
            }
            EventKind::ControllerStart { jobs } => pairs.push(("jobs", num(*jobs as u64))),
            EventKind::Fatal { detail } => pairs.push(("detail", s(detail.clone()))),
        }
        obj(pairs)
    }
}

/// The bounded, thread-safe campaign event ring.
#[derive(Debug, Default)]
pub struct CampaignLog {
    inner: Mutex<LogInner>,
}

#[derive(Debug, Default)]
struct LogInner {
    events: VecDeque<CampaignEvent>,
    next_seq: u64,
    dropped: u64,
}

impl CampaignLog {
    /// An empty log.
    pub fn new() -> CampaignLog {
        CampaignLog::default()
    }

    /// Records one event at `at_ms` on the campaign clock.
    pub fn record(&self, at_ms: u64, job: Option<JobId>, kind: EventKind) {
        let mut inner = self.inner.lock().expect("campaign log poisoned");
        if inner.events.len() == EVENT_CAPACITY {
            inner.events.pop_front();
            inner.dropped += 1;
        }
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.events.push_back(CampaignEvent {
            seq,
            at_ms,
            job,
            kind,
        });
    }

    /// A copy of the retained events, oldest first.
    pub fn snapshot(&self) -> Vec<CampaignEvent> {
        self.inner
            .lock()
            .expect("campaign log poisoned")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Events evicted by ring wrap so far.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().expect("campaign log poisoned").dropped
    }

    /// The retained events of one job, oldest first.
    pub fn events_for(&self, job: JobId) -> Vec<CampaignEvent> {
        self.inner
            .lock()
            .expect("campaign log poisoned")
            .events
            .iter()
            .filter(|e| e.job == Some(job))
            .cloned()
            .collect()
    }
}

/// One derived job-phase span for the Chrome trace: a job waiting in
/// the queue, running an attempt on a worker, or being served from the
/// cache.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpan {
    /// The track the span renders on: a worker name, or `"queue"` for
    /// waiting/cache-hit phases.
    pub track: String,
    /// The span label (`"job 3 queued"`, `"job 3 attempt 2"`, ...).
    pub name: String,
    /// The job.
    pub job: JobId,
    /// Phase start, campaign-clock ms.
    pub start_ms: u64,
    /// Phase end, campaign-clock ms (`>= start_ms`).
    pub end_ms: u64,
    /// Extra key/value detail rendered into the span's `args`.
    pub args: Vec<(String, Json)>,
}

/// Folds an event stream into per-job phase spans. Phases still open at
/// the end of the stream close at the stream's last timestamp, tagged
/// `open=true` — an interrupted campaign still renders.
pub fn derive_spans(events: &[CampaignEvent]) -> Vec<JobSpan> {
    use std::collections::HashMap;
    let end_of_stream = events.last().map(|e| e.at_ms).unwrap_or(0);
    // Per-job open phases: when it started queueing, and (worker, since,
    // attempt#) while running.
    let mut queued: HashMap<JobId, u64> = HashMap::new();
    let mut running: HashMap<JobId, (String, u64, u32)> = HashMap::new();
    let mut attempts: HashMap<JobId, u32> = HashMap::new();
    let mut spans = Vec::new();
    let close_queued = |queued: &mut HashMap<JobId, u64>,
                        spans: &mut Vec<JobSpan>,
                        job: JobId,
                        at: u64,
                        name: &str| {
        if let Some(since) = queued.remove(&job) {
            spans.push(JobSpan {
                track: "queue".to_string(),
                name: format!("job {job} {name}"),
                job,
                start_ms: since,
                end_ms: at.max(since),
                args: Vec::new(),
            });
        }
    };
    for e in events {
        let Some(job) = e.job else { continue };
        // What the event says about the attempt it ends, if it ends one.
        let outcome = match &e.kind {
            EventKind::Submitted { .. } => {
                queued.insert(job, e.at_ms);
                continue;
            }
            EventKind::Leased { worker } => {
                close_queued(&mut queued, &mut spans, job, e.at_ms, "queued");
                let n = attempts.entry(job).or_insert(0);
                *n += 1;
                running.insert(job, (worker.clone(), e.at_ms, *n));
                continue;
            }
            EventKind::Released { reason, kill, .. } => {
                queued.insert(job, e.at_ms);
                vec![
                    ("outcome", s("released")),
                    ("reason", s(reason.clone())),
                    ("kill", Json::Bool(*kill)),
                ]
            }
            EventKind::Done { cached, .. } => {
                if !running.contains_key(&job) {
                    close_queued(&mut queued, &mut spans, job, e.at_ms, "cache-hit");
                }
                vec![("outcome", s("done")), ("cached", Json::Bool(*cached))]
            }
            EventKind::Failed { detail, .. } | EventKind::Quarantined { detail, .. } => {
                vec![("outcome", s(e.kind.tag())), ("detail", s(detail.clone()))]
            }
            EventKind::ControllerStart { .. }
            | EventKind::Interrupted
            | EventKind::Fatal { .. } => continue,
        };
        if let Some((worker, since, n)) = running.remove(&job) {
            spans.push(JobSpan {
                track: worker,
                name: format!("job {job} attempt {n}"),
                job,
                start_ms: since,
                end_ms: e.at_ms.max(since),
                args: outcome
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            });
        }
    }
    for (job, since) in queued {
        spans.push(JobSpan {
            track: "queue".to_string(),
            name: format!("job {job} queued"),
            job,
            start_ms: since,
            end_ms: end_of_stream.max(since),
            args: vec![("open".to_string(), Json::Bool(true))],
        });
    }
    for (job, (worker, since, n)) in running {
        spans.push(JobSpan {
            track: worker,
            name: format!("job {job} attempt {n}"),
            job,
            start_ms: since,
            end_ms: end_of_stream.max(since),
            args: vec![("open".to_string(), Json::Bool(true))],
        });
    }
    spans.sort_by_key(|sp| (sp.start_ms, sp.job, sp.end_ms));
    spans
}

/// Writes one flight-record document — the last events, a metrics
/// snapshot, and the caller's queue-state JSON — atomically into
/// `dir/flight-NNNN-<reason>.json`, rotating so at most
/// [`FLIGHTREC_KEEP`] records survive. `seq` distinguishes successive
/// dumps in one controller process.
///
/// # Errors
///
/// [`SimError::Campaign`] on I/O failure (callers downgrade to a
/// warning: a failed dump must never kill the campaign it documents).
pub fn write_flight_record(
    dir: &Path,
    seq: u64,
    reason: &str,
    at_ms: u64,
    log: &CampaignLog,
    metrics_json: Json,
    queue_json: Json,
) -> Result<PathBuf, SimError> {
    let slug: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .take(48)
        .collect();
    let path = dir.join(format!("flight-{seq:04}-{slug}.json"));
    let events: Vec<Json> = log.snapshot().iter().map(CampaignEvent::to_json).collect();
    let doc = obj(vec![
        ("schema", num(FLIGHTREC_SCHEMA)),
        ("reason", s(reason)),
        ("at_ms", num(at_ms)),
        ("dropped_events", num(log.dropped())),
        ("events", Json::Arr(events)),
        ("metrics", metrics_json),
        ("queue", queue_json),
    ]);
    write_atomic(&path, doc.encode().as_bytes()).map_err(|e| SimError::Campaign {
        detail: format!("write {}: {e}", path.display()),
    })?;
    rotate(dir);
    Ok(path)
}

/// Keeps the newest [`FLIGHTREC_KEEP`] `flight-*.json` files (by name —
/// the zero-padded sequence number sorts chronologically within a
/// controller run). Best-effort: rotation failures are ignored.
fn rotate(dir: &Path) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut names: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("flight-") && n.ends_with(".json"))
        })
        .collect();
    names.sort();
    while names.len() > FLIGHTREC_KEEP {
        let oldest = names.remove(0);
        std::fs::remove_file(oldest).ok();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leased(log: &CampaignLog, at: u64, job: JobId, worker: &str) {
        log.record(
            at,
            Some(job),
            EventKind::Leased {
                worker: worker.to_string(),
            },
        );
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let log = CampaignLog::new();
        for i in 0..(EVENT_CAPACITY as u64 + 10) {
            log.record(i, Some(0), EventKind::Submitted { lane: "normal" });
        }
        let events = log.snapshot();
        assert_eq!(events.len(), EVENT_CAPACITY);
        assert_eq!(log.dropped(), 10);
        assert_eq!(events.first().expect("nonempty").seq, 10, "oldest evicted");
        assert_eq!(
            events.last().expect("nonempty").seq,
            EVENT_CAPACITY as u64 + 9
        );
    }

    #[test]
    fn spans_cover_queued_attempts_and_cache_hits() {
        let log = CampaignLog::new();
        log.record(0, Some(0), EventKind::Submitted { lane: "normal" });
        log.record(0, Some(1), EventKind::Submitted { lane: "normal" });
        log.record(
            1,
            Some(1),
            EventKind::Done {
                worker: String::new(),
                cached: true,
            },
        );
        leased(&log, 5, 0, "w0");
        log.record(
            20,
            Some(0),
            EventKind::Released {
                worker: "w0".to_string(),
                reason: "lease expired".to_string(),
                kill: true,
            },
        );
        leased(&log, 30, 0, "w1");
        log.record(
            90,
            Some(0),
            EventKind::Done {
                worker: "w1".to_string(),
                cached: false,
            },
        );
        let spans = derive_spans(&log.snapshot());
        // job 1: one cache-hit span on the queue track.
        let hit = spans.iter().find(|sp| sp.job == 1).expect("cache-hit span");
        assert_eq!(hit.track, "queue");
        assert!(hit.name.contains("cache-hit"), "{}", hit.name);
        // job 0: queued (0..5), attempt 1 on w0 (5..20), queued again
        // (20..30), attempt 2 on w1 (30..90).
        let job0: Vec<&JobSpan> = spans.iter().filter(|sp| sp.job == 0).collect();
        assert_eq!(job0.len(), 4, "{job0:?}");
        assert_eq!(job0[0].track, "queue");
        assert_eq!((job0[0].start_ms, job0[0].end_ms), (0, 5));
        assert_eq!(job0[1].track, "w0");
        assert!(job0[1].name.contains("attempt 1"));
        assert_eq!((job0[1].start_ms, job0[1].end_ms), (5, 20));
        assert_eq!(job0[2].track, "queue");
        assert_eq!((job0[2].start_ms, job0[2].end_ms), (20, 30));
        assert_eq!(job0[3].track, "w1");
        assert!(job0[3].name.contains("attempt 2"));
        assert_eq!((job0[3].start_ms, job0[3].end_ms), (30, 90));
    }

    #[test]
    fn open_phases_close_at_stream_end() {
        let log = CampaignLog::new();
        log.record(0, Some(0), EventKind::Submitted { lane: "high" });
        leased(&log, 10, 0, "w0");
        log.record(50, None, EventKind::Interrupted);
        let spans = derive_spans(&log.snapshot());
        let open = spans
            .iter()
            .find(|sp| sp.track == "w0")
            .expect("open attempt span");
        assert_eq!(open.end_ms, 50);
        assert!(open
            .args
            .iter()
            .any(|(k, v)| k == "open" && *v == Json::Bool(true)));
    }

    #[test]
    fn flight_records_write_and_rotate() {
        let dir = std::env::temp_dir().join(format!("mlpwin-flightrec-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let log = CampaignLog::new();
        log.record(0, Some(0), EventKind::Submitted { lane: "normal" });
        for seq in 0..(FLIGHTREC_KEEP as u64 + 4) {
            let path = write_flight_record(
                &dir,
                seq,
                "worker quarantine: boom / kill #3",
                1234,
                &log,
                Json::Null,
                Json::Arr(Vec::new()),
            )
            .expect("dump");
            assert!(path.exists());
            let text = std::fs::read_to_string(&path).expect("read back");
            let doc = Json::parse(&text).expect("valid JSON");
            assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(1));
            assert_eq!(doc.get("at_ms").and_then(Json::as_u64), Some(1234));
            assert_eq!(
                doc.get("events").and_then(Json::as_arr).map(<[Json]>::len),
                Some(1)
            );
        }
        let kept = std::fs::read_dir(&dir).expect("dir").count();
        assert_eq!(kept, FLIGHTREC_KEEP, "rotation bounds the directory");
        std::fs::remove_dir_all(&dir).ok();
    }
}
