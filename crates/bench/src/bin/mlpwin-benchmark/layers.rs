//! Layer probes: each drives one layer through its public API on the
//! workload's own specs and results, and times it from outside.
//!
//! The memory-system and branch-predictor numbers are replay estimates:
//! the spec's correct-path references are regenerated and fed to a
//! standalone `MemSystem` / `BranchPredictor`, which is not the
//! interleaving the core produces. Time inside `Core::step` is not
//! split by stage here; that needs tracing inside the program.

use crate::stats::Checks;
use mlpwin_branch::BranchPredictor;
use mlpwin_isa::{Addr, Instruction, OpClass};
use mlpwin_memsys::{AccessKind, MemSystem, PathKind};
use mlpwin_ooo::Core;
use mlpwin_sim::journal::{decode_line, encode_line, spec_hash};
use mlpwin_sim::runner::{RunResult, RunSpec};
use mlpwin_sim::snapshot::{SnapshotPhase, SnapshotPolicy, SnapshotStore};
use mlpwin_sim::wire::{encode_frame, read_frame, Msg};
use mlpwin_sim::{
    CacheStore, JobQueue, Journal, Lane, QueuePolicy, SimError, Supervisor, WorkerEnd,
};
use mlpwin_workloads::{profiles, Workload};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Timed repetitions of the single-shot probes (snapshot codec, save,
/// worker spawn); the median is reported.
const SHOTS: usize = 5;

fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

fn median_ns(mut xs: Vec<u64>) -> u64 {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

/// Each spec's committed-path stream over its whole budget, regenerated
/// from the profile and seed.
fn stream(spec: &RunSpec) -> Result<impl Iterator<Item = Instruction>, SimError> {
    let mut workload = profiles::by_name(&spec.profile, spec.seed)?;
    Ok((0..spec.warmup + spec.insts).map(move |_| workload.next_inst()))
}

/// Mean ns per `MemSystem::access` replaying the specs' correct-path
/// loads and stores, one instruction per cycle.
pub fn memsys_replay(specs: &[RunSpec]) -> Result<(f64, u64), SimError> {
    let (mut ns, mut accesses) = (0u64, 0u64);
    for spec in specs {
        let refs: Vec<(AccessKind, Addr, Addr)> = stream(spec)?
            .filter_map(|inst| {
                let kind = match inst.op {
                    OpClass::Load => AccessKind::Load,
                    OpClass::Store => AccessKind::Store,
                    _ => return None,
                };
                inst.mem.map(|m| (kind, inst.pc, m.addr))
            })
            .collect();
        let mut mem = MemSystem::new(spec.model.build().0.memory);
        let started = Instant::now();
        for (now, &(kind, pc, addr)) in refs.iter().enumerate() {
            black_box(mem.access(kind, pc, addr, now as u64, PathKind::Correct));
        }
        ns += ns_since(started);
        accesses += refs.len() as u64;
    }
    Ok((ns as f64 / accesses.max(1) as f64, accesses))
}

/// Mean ns per `predict` + `resolve` replaying the specs' branches.
pub fn branch_replay(specs: &[RunSpec]) -> Result<(f64, u64), SimError> {
    let (mut ns, mut branches) = (0u64, 0u64);
    for spec in specs {
        let stream: Vec<Instruction> = stream(spec)?.filter(|i| i.branch.is_some()).collect();
        let mut bp = BranchPredictor::new(spec.model.build().0.predictor);
        let started = Instant::now();
        for inst in &stream {
            let outcome = bp.predict(inst);
            bp.resolve(inst, &outcome);
            black_box(outcome.mispredicted);
        }
        ns += ns_since(started);
        branches += stream.len() as u64;
    }
    Ok((ns as f64 / branches.max(1) as f64, branches))
}

/// The snapshot codec on `spec`'s armed core (warm-up done, measurement
/// armed — split interval 0): image bytes, encode ns, decode ns, and the
/// image itself.
pub fn snap_codec(spec: &RunSpec) -> Result<(Vec<u8>, u64, u64), SimError> {
    let build = || -> Result<_, SimError> {
        let (config, policy) = spec.model.build();
        let workload = profiles::by_name(&spec.profile, spec.seed)?;
        Ok(Core::try_new(config, workload, policy)?)
    };
    let mut core = build()?;
    core.run_warmup(spec.warmup)?;
    core.arm_run(spec.insts);
    let mut image = Vec::new();
    let encode = median_ns(
        (0..SHOTS)
            .map(|_| {
                let started = Instant::now();
                image = core.snapshot();
                ns_since(started)
            })
            .collect(),
    );
    let mut fresh = build()?;
    let mut decode = Vec::with_capacity(SHOTS);
    for _ in 0..SHOTS {
        let started = Instant::now();
        let restored = fresh.restore(&image);
        decode.push(ns_since(started));
        restored.map_err(|e| SimError::Snapshot {
            path: "<in-memory image>".into(),
            detail: format!("restore: {e}"),
        })?;
    }
    Ok((image, encode, median_ns(decode)))
}

/// Median ns of `SnapshotStore::save` (tmp + fsync + rename) of `image`.
pub fn snapshot_save(spec: &RunSpec, image: &[u8], dir: &Path) -> Result<u64, String> {
    let store = SnapshotStore::new(dir, spec_hash(spec), 3);
    let mut shots = Vec::with_capacity(SHOTS);
    for cycle in 0..SHOTS as u64 {
        let started = Instant::now();
        store.save(SnapshotPhase::Measure, cycle, image)?;
        shots.push(ns_since(started));
    }
    store.discard();
    Ok(median_ns(shots))
}

/// Mean ns per operation of a file-backed `JobQueue`: submit, lease and
/// complete every spec, then the WAL replay of reopening it.
pub struct QueueTimes {
    pub submit_ns: f64,
    pub lease_ns: f64,
    pub complete_ns: f64,
    pub replay_ns: u64,
}

pub fn queue(specs: &[RunSpec], dir: &Path, checks: &mut Checks) -> Result<QueueTimes, SimError> {
    std::fs::create_dir_all(dir).ok();
    let wal = dir.join("queue.wal");
    std::fs::remove_file(&wal).ok();
    let n = specs.len() as f64;
    let mut queue = JobQueue::open(&wal, QueuePolicy::default())?;
    let started = Instant::now();
    for spec in specs {
        queue.submit(spec, Lane::Normal)?;
    }
    let submit_ns = ns_since(started) as f64 / n;
    let started = Instant::now();
    let mut leased = Vec::with_capacity(specs.len());
    while let Some(job) = queue.lease("bench", 0)? {
        leased.push(job.id);
    }
    let lease_ns = ns_since(started) as f64 / n;
    let started = Instant::now();
    for &id in &leased {
        queue.complete(id, false, 0)?;
    }
    let complete_ns = ns_since(started) as f64 / n;
    drop(queue);
    let started = Instant::now();
    let replayed = JobQueue::open(&wal, QueuePolicy::default())?;
    let replay_ns = ns_since(started);
    checks.check(
        leased.len() == specs.len() && replayed.all_terminal(),
        || format!("queue: leased {} of {} jobs", leased.len(), specs.len()),
    );
    drop(replayed);
    std::fs::remove_file(&wal).ok();
    Ok(QueueTimes {
        submit_ns,
        lease_ns,
        complete_ns,
        replay_ns,
    })
}

/// `CacheStore::absorb_file` of a journal holding `results` (ns), and
/// the mean ns of a verified lookup.
pub fn cache(
    results: &[RunResult],
    dir: &Path,
    checks: &mut Checks,
) -> Result<(u64, f64), SimError> {
    let path = dir.join("cache.jsonl");
    std::fs::remove_file(&path).ok();
    let journal = Journal::new(&path);
    for r in results {
        journal.append(&r.spec, r)?;
    }
    let mut cache = CacheStore::new();
    let started = Instant::now();
    cache.absorb_file(&path)?;
    let absorb_ns = ns_since(started);
    let started = Instant::now();
    let hits = results
        .iter()
        .filter(|r| matches!(cache.lookup(&r.spec), Ok(Some(hit)) if hit == *r))
        .count();
    let lookup_ns = ns_since(started) as f64 / results.len() as f64;
    checks.check(hits == results.len(), || {
        format!("cache: {hits} of {} lookups hit", results.len())
    });
    std::fs::remove_file(&path).ok();
    Ok((absorb_ns, lookup_ns))
}

/// Mean ns of `encode_line` and `decode_line`, and mean line bytes.
pub fn journal(results: &[RunResult], checks: &mut Checks) -> (f64, f64, f64) {
    let n = results.len() as f64;
    let started = Instant::now();
    let lines: Vec<String> = results.iter().map(|r| encode_line(&r.spec, r)).collect();
    let encode_ns = ns_since(started) as f64 / n;
    let started = Instant::now();
    let decoded: Vec<_> = lines.iter().map(|l| decode_line(l)).collect();
    let decode_ns = ns_since(started) as f64 / n;
    let same = results
        .iter()
        .zip(&decoded)
        .all(|(r, d)| matches!(d, Some((spec, back)) if *spec == r.spec && back == r));
    checks.check(same, || "journal: a line did not round-trip".to_string());
    let bytes = lines.iter().map(String::len).sum::<usize>() as f64 / n;
    (encode_ns, decode_ns, bytes)
}

/// Mean ns of `encode_frame` + `read_frame` of a result-carrying `Msg`
/// over an in-memory buffer, and mean frame bytes.
pub fn wire(results: &[RunResult], checks: &mut Checks) -> (f64, f64) {
    let msgs: Vec<Msg> = results
        .iter()
        .enumerate()
        .map(|(job, r)| Msg::Result {
            job: job as u64,
            line: encode_line(&r.spec, r),
        })
        .collect();
    let (mut ns, mut bytes, mut same) = (0u64, 0usize, true);
    for msg in &msgs {
        let started = Instant::now();
        let frame = encode_frame(msg);
        let back = read_frame(&mut frame.as_slice());
        ns += ns_since(started);
        bytes += frame.len();
        same &= back.as_ref() == Ok(msg);
    }
    checks.check(same, || "wire: a frame did not round-trip".to_string());
    let n = msgs.len() as f64;
    (ns as f64 / n, bytes as f64 / n)
}

/// Median ns to spawn the worker executable on a one-instruction job of
/// `spec` and reap it, as the campaign supervisor does.
pub fn spawn(spec: &RunSpec, sim_exe: &Path, dir: &Path, checks: &mut Checks) -> u64 {
    let supervisor = Supervisor::new(sim_exe, SnapshotPolicy::in_dir(dir.join("spawn")));
    let tiny = spec.clone().with_budget(0, 1);
    let mut shots = Vec::with_capacity(SHOTS);
    for _ in 0..SHOTS {
        let started = Instant::now();
        let end = supervisor.supervise_once(&tiny);
        shots.push(ns_since(started));
        checks.check(end == WorkerEnd::Clean, || {
            format!("spawn: worker ended {end:?}")
        });
    }
    median_ns(shots)
}
