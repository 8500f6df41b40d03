//! Crash-safe matrix checkpointing.
//!
//! A [`Journal`] is a JSON-lines file (conventionally under
//! [`Journal::DEFAULT_DIR`]) holding one line per completed run: the
//! spec, its result, and an FNV-1a hash of the spec's canonical string.
//! A resumed campaign loads the journal, skips every spec whose decoded
//! entry matches exactly, and re-runs only the rest.
//!
//! Robustness rules:
//! - the hash is FNV-1a over a canonical rendering — stable across
//!   processes and compiler versions (unlike `DefaultHasher`);
//! - any line that fails to parse, fails the hash check, or decodes to a
//!   spec that no longer matches is *skipped*, not fatal: a truncated
//!   final line from a killed process merely re-runs one spec;
//! - only successful results are journaled — failed specs are always
//!   re-run so they produce fresh diagnostics.

use crate::error::SimError;
use crate::json::{num, obj, s, Json};
use crate::model::SimModel;
use crate::runner::{FaultSpec, RunResult, RunSpec};
use mlpwin_branch::PredictorStats;
use mlpwin_isa::Counters;
use mlpwin_memsys::ProvenanceStats;
use mlpwin_ooo::{CoreStats, IntervalSample, LevelSpec, CPI_BUCKETS};
use mlpwin_workloads::Category;
use std::path::{Path, PathBuf};

/// FNV-1a, 64-bit: tiny, dependency-free, stable everywhere.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The canonical one-line rendering of a spec that the journal hash
/// covers. Every field participates: two specs differing anywhere get
/// different strings (and almost surely different hashes).
pub(crate) fn canonical_spec(spec: &RunSpec) -> String {
    format!(
        "{}|{}|{}|{}|{}|{}|{}|{}|{}",
        spec.profile,
        spec.model.tag(),
        spec.warmup,
        spec.insts,
        spec.seed,
        spec.watchdog_cycles.map_or("-".into(), |v| v.to_string()),
        spec.deadline_cycles.map_or("-".into(), |v| v.to_string()),
        spec.fault.map_or("-".into(), |f| f.to_string()),
        spec.interval_cycles.map_or("-".into(), |v| v.to_string()),
    )
}

/// Stable 64-bit identity of a spec, used as the journal key.
pub fn spec_hash(spec: &RunSpec) -> u64 {
    fnv1a(canonical_spec(spec).as_bytes())
}

/// A JSON-lines file of completed `(spec, result)` pairs.
#[derive(Debug, Clone)]
pub struct Journal {
    path: PathBuf,
}

impl Journal {
    /// Conventional directory for journals and other result artifacts.
    pub const DEFAULT_DIR: &'static str = "results";

    /// A journal at `path`. Nothing is opened until the first
    /// [`load`](Journal::load) or [`append`](Journal::append).
    pub fn new(path: impl Into<PathBuf>) -> Journal {
        Journal { path: path.into() }
    }

    /// The file this journal reads and appends.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Loads every decodable entry. A missing file is an empty journal;
    /// corrupt or stale lines (a kill mid-append, a hand edit) are
    /// skipped — the worst outcome of a bad line is re-running its spec.
    /// A line from an unknown schema (a journal written by a newer
    /// build) is also skipped, with a warning on stderr so the re-run is
    /// explicable.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, unreadable file).
    pub fn load(&self) -> Result<Vec<(RunSpec, RunResult)>, SimError> {
        let mut entries = Vec::new();
        crate::lock::replay_lines(&self.path, |n, line| {
            let Some(line) = line else { return };
            if let Some(entry) = decode_line(line) {
                entries.push(entry);
            } else if let Some(schema) = line_schema(line).filter(|s| !KNOWN_SCHEMAS.contains(s)) {
                eprintln!(
                    "warning: {}:{n}: skipping record with unknown schema {schema} \
                     (this build reads {KNOWN_SCHEMAS:?}); its spec will re-run",
                    self.path.display(),
                );
            }
        })
        .map_err(|e| self.io_error(format!("read failed: {e}")))?;
        Ok(entries)
    }

    /// Appends one completed run through
    /// [`append_line`](crate::lock::append_line): one locked write of
    /// one line, which first ends a partial line a previous kill left
    /// behind, so that entry cannot swallow this one.
    ///
    /// # Errors
    ///
    /// I/O failures creating, opening, locking or writing the file.
    pub fn append(&self, spec: &RunSpec, result: &RunResult) -> Result<(), SimError> {
        // Concurrent appenders (matrix threads, standalone workers
        // sharing one journal) serialize on the advisory lock, so each
        // entry lands as one uninterleaved line.
        crate::lock::append_line(&self.path, &encode_line(spec, result))
            .map_err(|e| self.io_error(format!("append failed: {e}")))
    }

    /// [`append`](Journal::append), synced to disk before it returns
    /// (through [`append_line_durable`](crate::lock::append_line_durable)).
    ///
    /// # Errors
    ///
    /// As [`append`](Journal::append), plus a failed `fsync`.
    pub fn append_durable(&self, spec: &RunSpec, result: &RunResult) -> Result<(), SimError> {
        crate::lock::append_line_durable(&self.path, &encode_line(spec, result))
            .map_err(|e| self.io_error(format!("durable append failed: {e}")))
    }

    fn io_error(&self, detail: String) -> SimError {
        SimError::Journal {
            path: self.path.clone(),
            detail,
        }
    }
}

// --------------------------------------------------------------- encoding

fn opt_num(v: Option<u64>) -> Json {
    v.map_or(Json::Null, num)
}

pub(crate) fn encode_spec(spec: &RunSpec) -> Json {
    let fault = match spec.fault {
        None => Json::Null,
        Some(FaultSpec::PanicAt(n)) => obj(vec![("panic_at", num(n))]),
        Some(FaultSpec::LivelockAt(n)) => obj(vec![("livelock_at", num(n))]),
    };
    obj(vec![
        ("profile", s(&spec.profile)),
        ("model", s(spec.model.tag())),
        ("warmup", num(spec.warmup)),
        ("insts", num(spec.insts)),
        ("seed", num(spec.seed)),
        ("watchdog", opt_num(spec.watchdog_cycles)),
        ("deadline", opt_num(spec.deadline_cycles)),
        ("fault", fault),
        ("intervals", opt_num(spec.interval_cycles)),
    ])
}

/// The `(name, value)` pairs of a record's scalar counters.
fn counter_pairs(record: &impl Counters) -> Vec<(&'static str, Json)> {
    let mut pairs = Vec::new();
    record.for_each_counter(|name, v| pairs.push((name, num(v))));
    pairs
}

/// A record whose scalar counters are read from the object `v`, one key
/// per counter; the other fields keep `record`'s values.
fn decode_counters<R: Counters>(mut record: R, v: &Json) -> Option<R> {
    record.read_counters(|name| get_u64(v, name))?;
    Some(record)
}

pub(crate) fn encode_stats(stats: &CoreStats) -> Json {
    let mut pairs = counter_pairs(stats);
    pairs.push((
        "level_cycles",
        Json::Arr(stats.level_cycles.iter().copied().map(num).collect()),
    ));
    pairs.push((
        "cpi_stack",
        Json::Arr(
            stats
                .cpi_stack
                .iter()
                .map(|row| Json::Arr(row.iter().copied().map(num).collect()))
                .collect(),
        ),
    ));
    pairs.push((
        "intervals",
        Json::Arr(
            stats
                .intervals
                .iter()
                .map(|i| Json::Arr(counter_pairs(i).into_iter().map(|(_, v)| v).collect()))
                .collect(),
        ),
    ));
    obj(pairs)
}

pub(crate) fn encode_result(result: &RunResult) -> Json {
    let category = match result.category {
        Category::MemoryIntensive => "mem",
        Category::ComputeIntensive => "comp",
    };
    obj(vec![
        ("category", s(category)),
        ("stats", encode_stats(&result.stats)),
        ("predictor", obj(counter_pairs(&result.predictor))),
        ("provenance", obj(counter_pairs(&result.provenance))),
        (
            "l2_miss_cycles",
            Json::Arr(result.l2_miss_cycles.iter().copied().map(num).collect()),
        ),
        ("l1_accesses", num(result.l1_accesses)),
        ("l2_accesses", num(result.l2_accesses)),
        ("dram_lines", num(result.dram_lines)),
        ("avg_load_latency", Json::Num(result.avg_load_latency)),
        (
            "levels",
            Json::Arr(
                result
                    .levels
                    .iter()
                    .map(|l| {
                        obj(vec![
                            ("iq", num(l.iq as u64)),
                            ("rob", num(l.rob as u64)),
                            ("lsq", num(l.lsq as u64)),
                            ("iq_depth", num(l.iq_depth as u64)),
                            (
                                "extra_mispredict_penalty",
                                num(l.extra_mispredict_penalty as u64),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The journal record schema this build writes. Bump it when the record
/// layout changes incompatibly; [`decode_line`] keeps accepting every
/// schema listed in [`KNOWN_SCHEMAS`].
pub const JOURNAL_SCHEMA: u64 = 2;

/// Record schemas this build can decode. Schema 1 is the legacy layout
/// whose version lived in a `"v"` field; schema 2 renamed it to
/// `"schema"` with an otherwise identical record body.
pub const KNOWN_SCHEMAS: &[u64] = &[1, JOURNAL_SCHEMA];

/// Encodes one journal line (no trailing newline).
pub fn encode_line(spec: &RunSpec, result: &RunResult) -> String {
    obj(vec![
        ("schema", num(JOURNAL_SCHEMA)),
        ("hash", s(format!("{:016x}", spec_hash(spec)))),
        ("spec", encode_spec(spec)),
        ("result", encode_result(result)),
    ])
    .encode()
}

// --------------------------------------------------------------- decoding

fn get_u64(v: &Json, key: &str) -> Option<u64> {
    v.get(key)?.as_u64()
}

pub(crate) fn decode_spec(v: &Json) -> Option<RunSpec> {
    let fault = match v.get("fault")? {
        Json::Null => None,
        f => {
            if let Some(n) = get_u64(f, "panic_at") {
                Some(FaultSpec::PanicAt(n))
            } else {
                Some(FaultSpec::LivelockAt(get_u64(f, "livelock_at")?))
            }
        }
    };
    Some(RunSpec {
        profile: v.get("profile")?.as_str()?.to_string(),
        model: SimModel::from_tag(v.get("model")?.as_str()?)?,
        warmup: get_u64(v, "warmup")?,
        insts: get_u64(v, "insts")?,
        seed: get_u64(v, "seed")?,
        watchdog_cycles: match v.get("watchdog")? {
            Json::Null => None,
            n => Some(n.as_u64()?),
        },
        deadline_cycles: match v.get("deadline")? {
            Json::Null => None,
            n => Some(n.as_u64()?),
        },
        fault,
        interval_cycles: match v.get("intervals")? {
            Json::Null => None,
            n => Some(n.as_u64()?),
        },
    })
}

fn decode_u64_arr(v: &Json, key: &str) -> Option<Vec<u64>> {
    v.get(key)?.as_arr()?.iter().map(Json::as_u64).collect()
}

fn decode_cpi_stack(v: &Json) -> Option<Vec<[u64; CPI_BUCKETS]>> {
    v.as_arr()?
        .iter()
        .map(|row| {
            let vals: Vec<u64> = row
                .as_arr()?
                .iter()
                .map(Json::as_u64)
                .collect::<Option<_>>()?;
            <[u64; CPI_BUCKETS]>::try_from(vals).ok()
        })
        .collect()
}

/// An interval sample is an array of its counters in declaration order.
fn decode_intervals(v: &Json) -> Option<Vec<IntervalSample>> {
    v.as_arr()?
        .iter()
        .map(|sample| {
            let values = sample.as_arr()?;
            if values.len() != IntervalSample::COUNTERS.len() {
                return None;
            }
            let mut values = values.iter();
            let mut sample = IntervalSample::default();
            sample.read_counters(|_| values.next()?.as_u64())?;
            Some(sample)
        })
        .collect()
}

pub(crate) fn decode_stats(v: &Json) -> Option<CoreStats> {
    let stats = CoreStats {
        level_cycles: decode_u64_arr(v, "level_cycles")?,
        cpi_stack: decode_cpi_stack(v.get("cpi_stack")?)?,
        intervals: decode_intervals(v.get("intervals")?)?,
        ..CoreStats::default()
    };
    decode_counters(stats, v)
}

pub(crate) fn decode_result(v: &Json, spec: RunSpec) -> Option<RunResult> {
    Some(RunResult {
        spec,
        category: match v.get("category")?.as_str()? {
            "mem" => Category::MemoryIntensive,
            "comp" => Category::ComputeIntensive,
            _ => return None,
        },
        stats: decode_stats(v.get("stats")?)?,
        predictor: decode_counters(PredictorStats::default(), v.get("predictor")?)?,
        provenance: decode_counters(ProvenanceStats::default(), v.get("provenance")?)?,
        l2_miss_cycles: decode_u64_arr(v, "l2_miss_cycles")?,
        l1_accesses: get_u64(v, "l1_accesses")?,
        l2_accesses: get_u64(v, "l2_accesses")?,
        dram_lines: get_u64(v, "dram_lines")?,
        avg_load_latency: v.get("avg_load_latency")?.as_f64()?,
        levels: v
            .get("levels")?
            .as_arr()?
            .iter()
            .map(|l| {
                Some(LevelSpec {
                    iq: get_u64(l, "iq")? as usize,
                    rob: get_u64(l, "rob")? as usize,
                    lsq: get_u64(l, "lsq")? as usize,
                    iq_depth: get_u64(l, "iq_depth")? as u32,
                    extra_mispredict_penalty: get_u64(l, "extra_mispredict_penalty")? as u32,
                })
            })
            .collect::<Option<Vec<_>>>()?,
        // Host-side engine telemetry is not journaled (the skip schedule
        // differs with the fast-forward on and off while results stay
        // identical).
        engine: Default::default(),
    })
}

/// The schema version a parseable journal line declares: the `"schema"`
/// field, falling back to the legacy `"v"` field. `None` when the line
/// is not JSON or carries neither.
pub fn line_schema(line: &str) -> Option<u64> {
    let v = Json::parse(line).ok()?;
    v.get("schema")
        .and_then(Json::as_u64)
        .or_else(|| v.get("v").and_then(Json::as_u64))
}

/// Decodes one journal line; `None` for anything malformed, from an
/// unknown schema, or with a hash that does not match its own spec (a
/// hand-edit or corruption).
pub fn decode_line(line: &str) -> Option<(RunSpec, RunResult)> {
    let v = Json::parse(line).ok()?;
    let schema = v
        .get("schema")
        .and_then(Json::as_u64)
        .or_else(|| v.get("v").and_then(Json::as_u64))?;
    if !KNOWN_SCHEMAS.contains(&schema) {
        return None;
    }
    let spec = decode_spec(v.get("spec")?)?;
    let recorded = v.get("hash")?.as_str()?;
    if recorded != format!("{:016x}", spec_hash(&spec)) {
        return None;
    }
    let result = decode_result(v.get("result")?, spec.clone())?;
    Some((spec, result))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run;

    fn sample() -> (RunSpec, RunResult) {
        let spec = RunSpec::new("libquantum", SimModel::Dynamic).with_budget(2_000, 2_000);
        let result = run(&spec).expect("healthy run");
        (spec, result)
    }

    #[test]
    fn hash_is_stable_and_field_sensitive() {
        let spec = RunSpec::new("gcc", SimModel::Base);
        assert_eq!(spec_hash(&spec), spec_hash(&spec.clone()));
        assert_ne!(spec_hash(&spec), spec_hash(&spec.clone().with_budget(1, 1)));
        assert_ne!(
            spec_hash(&spec),
            spec_hash(&spec.clone().with_fault(FaultSpec::PanicAt(5)))
        );
        assert_ne!(
            spec_hash(&spec.clone().with_fault(FaultSpec::PanicAt(5))),
            spec_hash(&spec.clone().with_fault(FaultSpec::LivelockAt(5)))
        );
        assert_ne!(spec_hash(&spec), spec_hash(&spec.clone().with_watchdog(9)));
    }

    #[test]
    fn lines_round_trip_exactly() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result);
        assert!(!line.contains('\n'));
        let (dspec, dresult) = decode_line(&line).expect("decodes");
        assert_eq!(dspec, spec);
        assert_eq!(dresult, result);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let (spec, result) = sample();
        let good = encode_line(&spec, &result);
        let half = &good[..good.len() / 2];
        let dir = std::env::temp_dir().join(format!(
            "mlpwin-journal-test-{}-{}",
            std::process::id(),
            spec_hash(&spec)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("matrix.jsonl");
        std::fs::write(&path, format!("{good}\nnot json\n{half}")).expect("write");
        let journal = Journal::new(&path);
        let entries = journal.load().expect("load");
        assert_eq!(entries.len(), 1, "only the intact line survives");
        assert_eq!(entries[0].0, spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lines_declare_the_current_schema() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result);
        assert_eq!(line_schema(&line), Some(JOURNAL_SCHEMA));
        assert!(line_schema("not json").is_none());
        assert!(line_schema("{\"hash\":\"x\"}").is_none());
    }

    #[test]
    fn legacy_v1_lines_still_decode() {
        let (spec, result) = sample();
        let legacy = encode_line(&spec, &result).replace("\"schema\":2", "\"v\":1");
        assert_eq!(line_schema(&legacy), Some(1));
        let (dspec, dresult) = decode_line(&legacy).expect("legacy decodes");
        assert_eq!(dspec, spec);
        assert_eq!(dresult, result);
    }

    #[test]
    fn unknown_schema_records_are_skipped_on_resume() {
        let (spec, result) = sample();
        let good = encode_line(&spec, &result);
        let future = good.replace("\"schema\":2", "\"schema\":99");
        assert!(
            decode_line(&future).is_none(),
            "an unknown schema must not decode"
        );
        let dir = std::env::temp_dir().join(format!(
            "mlpwin-journal-schema-{}-{}",
            std::process::id(),
            spec_hash(&spec)
        ));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("matrix.jsonl");
        std::fs::write(&path, format!("{future}\n{good}\n")).expect("write");
        let entries = Journal::new(&path).load().expect("load");
        assert_eq!(entries.len(), 1, "only the known-schema line survives");
        assert_eq!(entries[0].0, spec);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tampered_hash_invalidates_the_line() {
        let (spec, result) = sample();
        let line = encode_line(&spec, &result)
            .replace(&format!("{:016x}", spec_hash(&spec)), "deadbeefdeadbeef");
        assert!(decode_line(&line).is_none());
    }

    #[test]
    fn missing_journal_is_empty() {
        let journal = Journal::new("/nonexistent/dir/never-created.jsonl");
        assert!(journal.load().expect("missing file is fine").is_empty());
    }

    #[test]
    fn append_creates_parents_and_accumulates() {
        let (spec, result) = sample();
        let dir =
            std::env::temp_dir().join(format!("mlpwin-journal-append-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("nested").join("matrix.jsonl");
        let journal = Journal::new(&path);
        journal.append(&spec, &result).expect("first append");
        journal.append(&spec, &result).expect("second append");
        assert_eq!(journal.load().expect("load").len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
