//! Campaign history views, read back from the job queue's WAL.
//!
//! Each WAL line (see [`queue`](crate::queue)) holds one job transition
//! and its wall-clock stamp, and no other copy of that history is kept.
//! [`job_events`] renders a job's history for `/jobs/<id>`;
//! [`derive_spans`] folds it into the phase spans of the `--trace-out`
//! Chrome trace. [`write_flight_record`] dumps metrics and job views to
//! `flightrec/` when something dies, naming the WAL's last sequence
//! number so a post-mortem knows which history led there.

use crate::error::SimError;
use crate::json::{num, obj, s, Json};
use crate::lock::write_atomic;
use crate::queue::{JobId, WalEntry, WalRecord};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Flight-record files kept per campaign before rotation.
pub const FLIGHTREC_KEEP: usize = 16;

/// Schema stamp inside every flight-record document.
pub const FLIGHTREC_SCHEMA: u64 = 2;

/// `job`'s events among `entries`, oldest first, as `/jobs/<id>` shows
/// them: each record's sequence number, stamp (`null` on a line written
/// before stamps), `kind` tag and fields. A release or terminal event's
/// `worker` is the holder of the lease it ended (`""` when none was
/// open).
pub fn job_events(entries: &[WalEntry], job: JobId) -> Vec<Json> {
    let mut holder = String::new();
    let mut events = Vec::new();
    for e in entries.iter().filter(|e| e.rec.job() == job) {
        let mut pairs = vec![
            ("seq", num(e.seq)),
            ("at_ms", e.at_ms.map_or(Json::Null, num)),
            ("kind", s(e.rec.kind())),
            ("job", num(job)),
        ];
        match &e.rec {
            WalRecord::Enqueue { .. } => {}
            WalRecord::Lease { worker, .. } => holder.clone_from(worker),
            _ => pairs.push(("worker", s(std::mem::take(&mut holder)))),
        }
        pairs.extend(e.rec.fields());
        events.push(obj(pairs));
    }
    events
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
    /// Phase start, ms after the history's first stamp.
    pub start_ms: u64,
    /// Phase end, ms after the history's first stamp (`>= start_ms`).
    pub end_ms: u64,
    /// Extra key/value detail rendered into the span's `args`.
    pub args: Vec<(String, Json)>,
}

/// Folds a WAL history into per-job phase spans, timed in ms after its
/// first stamp; a line without a stamp takes the time before it. Each
/// record ends its job's open phase — an attempt's span records the
/// outcome, and a wait that ends in `done` is a cache hit — and an
/// enqueue, lease or release opens the next. Phases still open at the
/// end close at `end_at_ms` (a stamp, like the entries'), tagged
/// `open=true`, so an interrupted campaign still renders.
pub fn derive_spans(entries: &[WalEntry], end_at_ms: u64) -> Vec<JobSpan> {
    let base = entries.iter().find_map(|e| e.at_ms).unwrap_or(end_at_ms);
    let span = |track, job, phase: &str, start_ms, end_ms: u64, args| JobSpan {
        name: format!("job {job} {phase}"),
        track,
        job,
        start_ms,
        end_ms: end_ms.max(start_ms),
        args,
    };
    // Per job: the open phase's track, name and start.
    let mut open: HashMap<JobId, (String, String, u64)> = HashMap::new();
    let mut attempts: HashMap<JobId, u32> = HashMap::new();
    let mut spans = Vec::new();
    let mut at = 0;
    for e in entries {
        at = e.at_ms.map_or(at, |t| t.saturating_sub(base));
        let job = e.rec.job();
        if let Some((track, mut phase, since)) = open.remove(&job) {
            let mut args = Vec::new();
            if track != "queue" {
                let outcome = std::iter::once(("outcome", s(e.rec.kind())));
                let outcome = outcome.chain(e.rec.fields());
                args = outcome.map(|(k, v)| (k.to_string(), v)).collect();
            } else if matches!(e.rec, WalRecord::Done { .. }) {
                phase = "cache-hit".to_string();
            }
            spans.push(span(track, job, &phase, since, at, args));
        }
        let (track, phase) = match &e.rec {
            WalRecord::Enqueue { .. } | WalRecord::Release { .. } => {
                ("queue".to_string(), "queued".to_string())
            }
            WalRecord::Lease { worker, .. } => {
                let n = attempts.entry(job).or_insert(0);
                *n += 1;
                (worker.clone(), format!("attempt {n}"))
            }
            _ => continue,
        };
        open.insert(job, (track, phase, at));
    }
    let end = end_at_ms.saturating_sub(base);
    for (job, (track, phase, since)) in open {
        let args = vec![("open".to_string(), Json::Bool(true))];
        spans.push(span(track, job, &phase, since, end, args));
    }
    spans.sort_by_key(|sp| (sp.start_ms, sp.job, sp.end_ms));
    spans
}

/// Writes one flight-record document — the reason, the WAL stamp
/// `at_ms`, a metrics snapshot, the job views and the sequence number of
/// the WAL's last record — atomically into
/// `dir/flight-NNNN-<reason>.json`, rotating so at most
/// [`FLIGHTREC_KEEP`] records survive. `seq` orders the records: a
/// controller starts at [`next_flight_seq`], so a restarted one's
/// records rank above its predecessors'.
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
    metrics_json: Json,
    jobs_json: Json,
    wal_seq: u64,
) -> Result<PathBuf, SimError> {
    let mut slug = reason
        .to_ascii_lowercase()
        .replace(|c: char| !c.is_ascii_alphanumeric(), "-");
    slug.truncate(48); // all ASCII by now
    let path = dir.join(format!("flight-{seq:04}-{slug}.json"));
    let doc = obj(vec![
        ("schema", num(FLIGHTREC_SCHEMA)),
        ("reason", s(reason)),
        ("at_ms", num(at_ms)),
        ("metrics", metrics_json),
        ("queue", jobs_json),
        ("wal_seq", num(wal_seq)),
    ]);
    write_atomic(&path, doc.encode().as_bytes()).map_err(|e| SimError::Campaign {
        detail: format!("write {}: {e}", path.display()),
    })?;
    // Best-effort rotation: a failure leaves extra records behind.
    let records = flight_records(dir);
    let excess = records.len().saturating_sub(FLIGHTREC_KEEP);
    for (_, oldest) in &records[..excess] {
        std::fs::remove_file(oldest).ok();
    }
    Ok(path)
}

/// The `flight-NNNN-<reason>.json` records in `dir` with their sequence
/// numbers, lowest first (none in a missing directory).
fn flight_records(dir: &Path) -> Vec<(u64, PathBuf)> {
    let seq = |path: &Path| -> Option<u64> {
        let name = path.file_name()?.to_str()?;
        let rest = name.strip_prefix("flight-")?.strip_suffix(".json")?;
        rest.split('-').next()?.parse().ok()
    };
    let entries = std::fs::read_dir(dir).into_iter().flatten();
    let mut records: Vec<(u64, PathBuf)> = entries
        .filter_map(|e| {
            let path = e.ok()?.path();
            Some((seq(&path)?, path))
        })
        .collect();
    records.sort();
    records
}

/// The sequence number a controller's first flight record in `dir`
/// takes: one above every record already there (1 in an empty or
/// missing directory).
pub fn next_flight_seq(dir: &Path) -> u64 {
    flight_records(dir).last().map_or(1, |(seq, _)| seq + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::Lane;
    use crate::runner::RunSpec;

    /// A history stamped from an arbitrary wall-clock base, so spans
    /// must come out rebased to its first stamp.
    const BASE: u64 = 1_700_000_000_000;

    fn history(records: Vec<(u64, WalRecord)>) -> Vec<WalEntry> {
        (records.into_iter().zip(1..))
            .map(|((at, rec), seq)| WalEntry {
                seq,
                at_ms: Some(BASE + at),
                rec,
            })
            .collect()
    }

    fn enqueue(job: JobId) -> WalRecord {
        let mut spec = RunSpec::new("gcc", crate::SimModel::Base);
        spec.seed = job;
        WalRecord::Enqueue {
            job,
            spec,
            lane: Lane::Normal,
        }
    }

    fn leased(job: JobId, worker: &str) -> WalRecord {
        WalRecord::Lease {
            job,
            worker: worker.to_string(),
        }
    }

    #[test]
    fn spans_cover_queued_attempts_and_cache_hits() {
        let entries = history(vec![
            (0, enqueue(0)),
            (0, enqueue(1)),
            (
                1,
                WalRecord::Done {
                    job: 1,
                    cached: true,
                },
            ),
            (5, leased(0, "w0")),
            (
                20,
                WalRecord::Release {
                    job: 0,
                    reason: "lease expired".to_string(),
                    kill: true,
                },
            ),
            (30, leased(0, "w1")),
            (
                90,
                WalRecord::Done {
                    job: 0,
                    cached: false,
                },
            ),
        ]);
        let spans = derive_spans(&entries, BASE + 90);
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
        let entries = history(vec![(0, enqueue(0)), (10, leased(0, "w0"))]);
        let spans = derive_spans(&entries, BASE + 50);
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
        for seq in 0..(FLIGHTREC_KEEP as u64 + 4) {
            let path = write_flight_record(
                &dir,
                seq,
                "worker quarantine: boom / kill #3",
                1234,
                Json::Null,
                Json::Arr(Vec::new()),
                7,
            )
            .expect("dump");
            assert!(path.exists());
            let text = std::fs::read_to_string(&path).expect("read back");
            let doc = Json::parse(&text).expect("valid JSON");
            assert_eq!(doc.get("schema").and_then(Json::as_u64), Some(2));
            assert_eq!(doc.get("at_ms").and_then(Json::as_u64), Some(1234));
            assert_eq!(doc.get("wal_seq").and_then(Json::as_u64), Some(7));
        }
        let kept = std::fs::read_dir(&dir).expect("dir").count();
        assert_eq!(kept, FLIGHTREC_KEEP, "rotation bounds the directory");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A restarted controller numbers its records above the previous
    /// run's, so rotation drops the old ones, never its newest.
    #[test]
    fn a_restarted_controllers_record_survives_rotation() {
        let dir = std::env::temp_dir().join(format!("mlpwin-flightseq-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(next_flight_seq(&dir), 1, "a missing directory starts at 1");
        let dump = |seq: u64, reason: &str| {
            write_flight_record(&dir, seq, reason, 0, Json::Null, Json::Null, 0).expect("dump")
        };
        for seq in 1..=20 {
            dump(seq, "worker death");
        }
        let seq = next_flight_seq(&dir);
        assert_eq!(seq, 21);
        let newest = dump(seq, "job 0 quarantined");
        assert!(
            newest.exists(),
            "the restarted controller's record was rotated away"
        );
        let mut kept: Vec<u64> = flight_records(&dir)
            .into_iter()
            .map(|(seq, _)| seq)
            .collect();
        kept.sort_unstable();
        assert_eq!(kept, (6..=21).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).ok();
    }
}
