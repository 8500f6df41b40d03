//! Snapshot-delimited interval-parallel simulation.
//!
//! A long measurement run is split into `N` independently simulable
//! intervals in two phases:
//!
//! 1. **Sweep** (serial): run the workload once with the snapshot
//!    cadence pinned to the interval length, capturing a complete-state
//!    image at every boundary (`Core::snapshot`). The armed
//!    post-warm-up state is boundary 0, so workers never re-run the
//!    warm-up or re-arm the commit target/deadline.
//! 2. **Fan-out**: each interval is simulated independently — restore
//!    boundary `i`, drive to boundary `i+1` with
//!    [`Core::run_to_cycle`], and emit the per-interval
//!    [`StatsDelta`]. A stitcher sums the deltas onto the interval-0
//!    base and the result is **bit-identical** to the serial run (the
//!    CPI-stack conservation invariant survives because every delta
//!    conserves locally).
//!
//! Because snapshots are complete state, the exact mode is a
//! correctness artifact more than a throughput one on a single host:
//! the sweep already is a full serial run. The wall-clock win comes
//! from *amortizing* it — the boundary images and per-interval results
//! are persisted under a spec-hash-keyed store, so re-analyses skip
//! the warm-up and every already-journaled interval, and the
//! systematic-sampling mode (`sample_every = Some(k)`) re-simulates
//! only every `k`-th interval, extrapolating committed instructions
//! and CPI with finite-population standard-error confidence intervals
//! (SMARTS-style, but with exact checkpoints instead of functional
//! warming).
//!
//! Crash safety follows the journal discipline used everywhere else:
//! boundary frames and the manifest are written atomically, interval
//! results append to a flocked JSON-lines journal, and a relaunch
//! re-simulates only the intervals whose lines are missing.

use crate::error::SimError;
use crate::journal::{
    decode_result, decode_spec, decode_stats, encode_result, encode_spec, encode_stats, obj,
    spec_hash,
};
use crate::json::{num, s, Json};
use crate::lock;
use crate::metrics::{self, ScopedTimer};
use crate::runner::{apply_spec_overrides, collect_result, RunResult, RunSpec};
use crate::snapshot::{
    check_frame_header, decode_frame, encode_frame, quarantine_with_warning, SnapshotPhase,
    FRAME_HEADER,
};
use mlpwin_ooo::{Core, CoreStats, LevelSpec, StatsDelta, WindowPolicy, CPI_BUCKETS};
use mlpwin_workloads::{profiles, ProfileWorkload};
use std::fs::{self, File};
use std::io::Read as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Record schema of the split store (manifest + interval journal).
pub const SPLIT_SCHEMA: u64 = 1;

/// Histogram: wall microseconds of the serial snapshot sweep.
pub const METRIC_SPLIT_SWEEP: &str = "mlpwin_split_sweep_us";
/// Histogram: wall microseconds per simulated interval.
pub const METRIC_SPLIT_INTERVAL: &str = "mlpwin_split_interval_us";
/// Counter: intervals actually re-simulated in phase 2.
pub const METRIC_SPLIT_SIMULATED: &str = "mlpwin_split_intervals_simulated_total";
/// Counter: intervals served from a prior run's interval journal.
pub const METRIC_SPLIT_CACHED: &str = "mlpwin_split_intervals_cached_total";
/// Counter: sweeps skipped because a valid manifest already existed.
pub const METRIC_SPLIT_SWEEP_REUSED: &str = "mlpwin_split_sweep_reused_total";

/// How to split one run into intervals and how to execute phase 2.
#[derive(Debug, Clone)]
pub struct SplitConfig {
    /// Interval length in measured cycles; also the snapshot cadence
    /// the sweep pins, so every boundary is executed as a real step.
    pub interval_cycles: u64,
    /// Worker threads for phase 2.
    pub workers: usize,
    /// `Some(k)`: systematic sampling — simulate every `k`-th full
    /// interval (offset derived from the spec hash) plus the final
    /// partial interval, and extrapolate with confidence intervals.
    /// `None`: exact mode — simulate every interval and stitch totals
    /// bit-identical to the serial run.
    pub sample_every: Option<u64>,
    /// Deterministic crash injection: abort the process mid-interval
    /// once the named measured cycle is reached — only when the store
    /// held no interval results at startup, so the relaunch that
    /// resumes is not killed again (the chaos-test hook).
    pub chaos_kill_at: Option<u64>,
}

impl SplitConfig {
    /// A new exact-mode config with serial phase 2.
    pub fn new(interval_cycles: u64) -> SplitConfig {
        SplitConfig {
            interval_cycles,
            workers: 1,
            sample_every: None,
            chaos_kill_at: None,
        }
    }

    /// Sets the phase-2 worker-thread count.
    pub fn with_workers(mut self, workers: usize) -> SplitConfig {
        self.workers = workers.max(1);
        self
    }

    /// Enables systematic sampling with stride `k`.
    pub fn with_sampling(mut self, k: u64) -> SplitConfig {
        self.sample_every = Some(k.max(1));
        self
    }
}

/// One simulated interval: its boundaries in measured cycles and the
/// checked stats delta it contributed.
#[derive(Debug, Clone)]
pub struct IntervalRecord {
    /// Interval index (0-based).
    pub index: u64,
    /// Measured cycle of the start boundary (`index * interval_cycles`).
    pub start_cycle: u64,
    /// Measured cycle the interval ended at.
    pub end_cycle: u64,
    /// The counters accumulated within the interval.
    pub delta: StatsDelta,
    /// The full run result — present only on the final interval, whose
    /// worker drives to the commit target and finalizes like the serial
    /// run does.
    pub result: Option<RunResult>,
    /// Whether this record was loaded from a prior run's interval
    /// journal instead of being re-simulated.
    pub cached: bool,
}

/// The systematic-sampling extrapolation, with its 95% confidence
/// interval. `total_cycles` is exact (the sweep measured it); the
/// estimated quantity is committed instructions, and the CPI interval
/// is its monotone transform.
#[derive(Debug, Clone)]
pub struct SamplingEstimate {
    /// Full-length intervals in the run (the sampling frame).
    pub frame: u64,
    /// Intervals actually sampled.
    pub sampled: u64,
    /// Sampling stride `k`.
    pub stride: u64,
    /// Systematic offset within the stride (spec-hash derived).
    pub offset: u64,
    /// Mean committed instructions per sampled interval.
    pub mean_insts: f64,
    /// Standard error of that mean (finite-population corrected).
    pub stderr_insts: f64,
    /// Committed instructions in the final partial interval (simulated
    /// exactly, outside the frame).
    pub tail_insts: u64,
    /// Exact total measured cycles, from the sweep manifest.
    pub total_cycles: u64,
    /// Point estimate of total committed instructions.
    pub est_insts: f64,
    /// 95% CI on total committed instructions (lo, hi).
    pub ci95_insts: (f64, f64),
    /// Point estimate of CPI.
    pub est_cpi: f64,
    /// 95% CI on CPI (lo, hi).
    pub ci95_cpi: (f64, f64),
}

/// What one [`run_split`] call produced.
#[derive(Debug, Clone)]
pub struct SplitOutcome {
    /// The stitched run result — exact mode only, bit-identical to the
    /// serial [`runner::run`](crate::runner::run) of the same spec.
    pub result: Option<RunResult>,
    /// Per-interval records, ascending by index; in sampling mode only
    /// the sampled intervals and the tail appear.
    pub intervals: Vec<IntervalRecord>,
    /// Total intervals the run splits into.
    pub n_intervals: u64,
    /// Intervals re-simulated by this call.
    pub simulated: u64,
    /// Intervals loaded from the interval journal.
    pub cached: u64,
    /// Whether the sweep was skipped in favour of a stored manifest.
    pub sweep_reused: bool,
    /// The sampling extrapolation, when `sample_every` was set.
    pub sampling: Option<SamplingEstimate>,
    /// Wall seconds of phase 1 (0 when the sweep was reused).
    pub sweep_secs: f64,
    /// Wall seconds of phase 2.
    pub phase2_secs: f64,
}

// ------------------------------------------------------------- the store

/// The sweep manifest: what the serial pass established about the run's
/// interval structure. Its presence marks a complete sweep — it is
/// written (atomically) only after every boundary frame is on disk.
struct Manifest {
    /// Absolute core cycle (`Core::cycle`) at each boundary, index 0
    /// being the armed post-warm-up state.
    boundary_now: Vec<u64>,
    /// Measured cycles of the full run.
    final_cycles: u64,
    /// Committed instructions of the full run.
    final_insts: u64,
}

/// On-disk layout: `<dir>/<spec_hash>-L<interval>/` holding
/// `manifest.json`, one `b<index>.snap` frame per boundary, and the
/// append-only `intervals.jsonl` result journal.
struct SplitStore {
    dir: PathBuf,
    hash: u64,
}

impl SplitStore {
    fn new(dir: &Path, spec: &RunSpec, interval_cycles: u64) -> SplitStore {
        let hash = spec_hash(spec);
        SplitStore {
            dir: dir.join(format!("{hash:016x}-L{interval_cycles}")),
            hash,
        }
    }

    fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    fn boundary_path(&self, index: u64) -> PathBuf {
        self.dir.join(format!("b{index:06}.snap"))
    }

    fn journal_path(&self) -> PathBuf {
        self.dir.join("intervals.jsonl")
    }

    fn save_boundary(&self, index: u64, now: u64, payload: &[u8]) -> Result<(), SimError> {
        let frame = encode_frame(self.hash, SnapshotPhase::Measure, now, payload);
        let path = self.boundary_path(index);
        lock::write_atomic(&path, &frame).map_err(|e| SimError::Snapshot {
            path,
            detail: e.to_string(),
        })
    }

    fn load_boundary(&self, index: u64) -> Result<(u64, Vec<u8>), String> {
        let path = self.boundary_path(index);
        let mut bytes = Vec::new();
        File::open(&path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        let (_phase, now, payload) =
            decode_frame(self.hash, &bytes).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok((now, payload))
    }

    /// Whether boundary `index`'s frame exists and its header names this
    /// build's snapshot schema and this spec. A frame that exists but
    /// fails (another build's, say) is quarantined like a bad snapshot,
    /// so the caller re-sweeps instead of failing in phase 2.
    fn boundary_header_ok(&self, index: u64) -> bool {
        let path = self.boundary_path(index);
        if !path.is_file() {
            return false;
        }
        let mut head = [0u8; FRAME_HEADER];
        let checked = File::open(&path)
            .and_then(|mut f| f.read_exact(&mut head))
            .map_err(|e| e.to_string())
            .and_then(|()| check_frame_header(self.hash, &head));
        match checked {
            Ok(()) => true,
            Err(detail) => {
                quarantine_with_warning(&path, &detail);
                false
            }
        }
    }

    fn save_manifest(&self, spec: &RunSpec, m: &Manifest) -> Result<(), SimError> {
        let line = obj(vec![
            ("schema", num(SPLIT_SCHEMA)),
            ("hash", s(format!("{:016x}", self.hash))),
            ("spec", encode_spec(spec)),
            (
                "boundary_now",
                Json::Arr(m.boundary_now.iter().copied().map(num).collect()),
            ),
            ("final_cycles", num(m.final_cycles)),
            ("final_insts", num(m.final_insts)),
        ])
        .encode();
        let path = self.manifest_path();
        lock::write_atomic(&path, line.as_bytes()).map_err(|e| SimError::Snapshot {
            path,
            detail: e.to_string(),
        })
    }

    /// Loads and fully validates a stored manifest: schema, spec hash
    /// *and* full spec equality (the trust-no-hash rule), plus the
    /// presence of every boundary frame with a header this build reads.
    /// Any defect means "no sweep".
    fn load_manifest(&self, spec: &RunSpec) -> Option<Manifest> {
        let text = fs::read_to_string(self.manifest_path()).ok()?;
        let v = Json::parse(&text).ok()?;
        if v.get("schema")?.as_u64()? != SPLIT_SCHEMA {
            return None;
        }
        let stored = decode_spec(v.get("spec")?)?;
        if &stored != spec {
            return None;
        }
        let boundary_now: Vec<u64> = v
            .get("boundary_now")?
            .as_arr()?
            .iter()
            .map(|x| x.as_u64())
            .collect::<Option<_>>()?;
        if boundary_now.is_empty() {
            return None;
        }
        let m = Manifest {
            boundary_now,
            final_cycles: v.get("final_cycles")?.as_u64()?,
            final_insts: v.get("final_insts")?.as_u64()?,
        };
        for i in 0..m.boundary_now.len() as u64 {
            if !self.boundary_header_ok(i) {
                return None;
            }
        }
        Some(m)
    }

    /// Appends one interval-result line under the advisory file lock
    /// (cross-process safety; in-process callers serialize separately),
    /// ending a torn final line first.
    fn append_line(&self, line: &str) -> Result<(), SimError> {
        let path = self.journal_path();
        // No fsync: losing an un-synced line on power failure only
        // means that interval re-simulates on the next run, and an
        // fsync per interval would dominate phase-2 wall time.
        lock::append_line(&path, line).map_err(move |e| SimError::Journal {
            path,
            detail: e.to_string(),
        })
    }

    fn encode_record(&self, spec: &RunSpec, rec: &IntervalRecord) -> String {
        let mut pairs = vec![
            ("schema", num(SPLIT_SCHEMA)),
            ("hash", s(format!("{:016x}", self.hash))),
            ("index", num(rec.index)),
            ("start_cycle", num(rec.start_cycle)),
            ("end_cycle", num(rec.end_cycle)),
            ("delta", encode_stats(rec.delta.as_stats())),
        ];
        if let Some(result) = &rec.result {
            debug_assert_eq!(&result.spec, spec);
            pairs.push(("result", encode_result(result)));
        }
        obj(pairs).encode()
    }

    /// Replays the interval journal, tolerating a torn final line.
    /// Later lines win (a re-simulated interval supersedes), and every
    /// accepted record re-verifies schema and spec hash.
    fn load_records(&self, spec: &RunSpec) -> Vec<IntervalRecord> {
        let mut by_index: std::collections::BTreeMap<u64, IntervalRecord> = Default::default();
        // A read failure is an empty journal: every interval re-runs.
        let _ = lock::replay_lines(&self.journal_path(), |_, line| {
            if let Some(rec) = line.and_then(|line| self.decode_record(spec, line)) {
                by_index.insert(rec.index, rec);
            }
        });
        by_index.into_values().collect()
    }

    fn decode_record(&self, spec: &RunSpec, line: &str) -> Option<IntervalRecord> {
        let v = Json::parse(line).ok()?;
        if v.get("schema")?.as_u64()? != SPLIT_SCHEMA {
            return None;
        }
        if v.get("hash")?.as_str()? != format!("{:016x}", self.hash) {
            return None;
        }
        let delta = StatsDelta::from_raw(decode_stats(v.get("delta")?)?);
        let result = match v.get("result") {
            Some(r) => Some(decode_result(r, spec.clone())?),
            None => None,
        };
        Some(IntervalRecord {
            index: v.get("index")?.as_u64()?,
            start_cycle: v.get("start_cycle")?.as_u64()?,
            end_cycle: v.get("end_cycle")?.as_u64()?,
            delta,
            result,
            cached: true,
        })
    }

    /// Removes the store (sweep, journal and all) — the recovery path
    /// for an unstitchable store.
    fn discard(&self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

// ------------------------------------------------------------ the runner

fn split_err(detail: impl Into<String>) -> SimError {
    SimError::Split {
        detail: detail.into(),
    }
}

/// Builds the split-mode core for `spec`: the model's machine with the
/// spec overrides applied and the snapshot cadence pinned to the
/// interval length — identical for the sweep and every worker, so they
/// all take identical steps.
fn build_core(
    spec: &RunSpec,
    interval_cycles: u64,
) -> Result<(Core<ProfileWorkload>, Vec<LevelSpec>), SimError> {
    let (mut config, policy): (_, Box<dyn WindowPolicy>) = spec.model.build();
    apply_spec_overrides(&mut config, spec);
    config.snapshot_cycles = Some(interval_cycles);
    let levels = config.levels.clone();
    let workload = profiles::by_name(&spec.profile, spec.seed)?;
    Ok((Core::try_new(config, workload, policy)?, levels))
}

/// Ceiling on the sweep's in-memory boundary-frame cache. Frames the
/// sweep just produced are handed to phase-2 workers directly — no
/// disk read, no CRC re-verify — unless the run is long enough that
/// holding every frame would bloat the process; past the cap workers
/// fall back to the on-disk store.
const FRAME_CACHE_BYTES: usize = 256 << 20;

/// Boundary frames held in memory: `(measured cycle, snapshot bytes)`
/// per boundary index.
type BoundaryFrames = Vec<(u64, Vec<u8>)>;

/// Phase 1: the serial snapshot sweep. Runs warm-up, arms the
/// measurement run, and pauses at every interval boundary to persist a
/// complete-state frame; the manifest lands last, atomically. Also
/// returns the frames themselves (up to [`FRAME_CACHE_BYTES`]) so the
/// fan-out that immediately follows skips the store round-trip.
fn sweep(
    spec: &RunSpec,
    interval_cycles: u64,
    store: &SplitStore,
) -> Result<(Manifest, Option<BoundaryFrames>), SimError> {
    let timer = ScopedTimer::start(METRIC_SPLIT_SWEEP);
    let (mut core, _levels) = build_core(spec, interval_cycles)?;
    if spec.warmup > 0 {
        core.run_warmup(spec.warmup).map_err(SimError::from)?;
    }
    core.arm_run(spec.insts);
    let mut frames: Vec<(u64, Vec<u8>)> = Vec::new();
    let mut frame_bytes = 0usize;
    let mut save = |index: u64, now: u64, payload: Vec<u8>| -> Result<(), SimError> {
        store.save_boundary(index, now, &payload)?;
        frame_bytes += payload.len();
        frames.push((now, payload));
        Ok(())
    };
    let mut boundary_now = vec![core.cycle()];
    save(0, core.cycle(), core.snapshot())?;
    let mut bound = interval_cycles;
    loop {
        let done = core.run_to_cycle(bound).map_err(SimError::from)?;
        if done {
            break;
        }
        if core.stats().cycles != bound {
            return Err(split_err(format!(
                "sweep paused at measured cycle {} instead of boundary {bound}",
                core.stats().cycles
            )));
        }
        save(boundary_now.len() as u64, core.cycle(), core.snapshot())?;
        boundary_now.push(core.cycle());
        bound += interval_cycles;
    }
    let manifest = Manifest {
        boundary_now,
        final_cycles: core.stats().cycles,
        final_insts: core.stats().committed_insts,
    };
    store.save_manifest(spec, &manifest)?;
    timer.stop();
    let cache = (frame_bytes <= FRAME_CACHE_BYTES).then_some(frames);
    Ok((manifest, cache))
}

/// The product of simulating one interval.
struct SimulatedInterval {
    record: IntervalRecord,
    /// The worker's cumulative end-of-interval stats — the stitcher's
    /// cross-check material (equals the serial stats at the boundary).
    end_stats: CoreStats,
}

/// Shared phase-2 state every worker borrows.
struct Phase2<'a> {
    spec: &'a RunSpec,
    cfg: &'a SplitConfig,
    store: &'a SplitStore,
    manifest: &'a Manifest,
    /// Boundary frames still in memory from a fresh sweep this call;
    /// `None` (manifest reuse, or past the cache cap) reads the store.
    frames: Option<&'a [(u64, Vec<u8>)]>,
    chaos_armed: bool,
}

/// Phase 2, one interval: restore the start boundary into the worker's
/// reusable core, drive to the end boundary, peel the delta. The final
/// interval drives to the commit target and assembles the full
/// [`RunResult`] exactly like the serial epilogue. `core` carries no
/// state across calls — restore overwrites it completely (the
/// equivalence suite holds this to bit-identity).
fn simulate_interval(
    ctx: &Phase2<'_>,
    core: &mut Core<ProfileWorkload>,
    levels: &[LevelSpec],
    index: u64,
) -> Result<SimulatedInterval, SimError> {
    let (spec, cfg, manifest) = (ctx.spec, ctx.cfg, ctx.manifest);
    let timer = ScopedTimer::start(METRIC_SPLIT_INTERVAL);
    let n = manifest.boundary_now.len() as u64;
    let interval = cfg.interval_cycles;
    let frame_now = match ctx.frames.and_then(|f| f.get(index as usize)) {
        Some((now, payload)) => {
            core.restore(payload)
                .map_err(|e| split_err(format!("boundary {index} restore: {e}")))?;
            *now
        }
        None => {
            let (now, payload) = ctx
                .store
                .load_boundary(index)
                .map_err(|e| split_err(format!("boundary {index}: {e}")))?;
            core.restore(&payload)
                .map_err(|e| split_err(format!("boundary {index} restore: {e}")))?;
            now
        }
    };
    if core.cycle() != frame_now {
        return Err(split_err(format!(
            "boundary {index} restored to cycle {} not {frame_now}",
            core.cycle()
        )));
    }
    let start_cycle = index * interval;
    if core.stats().cycles != start_cycle {
        return Err(split_err(format!(
            "interval {index} starts at measured cycle {} not {start_cycle}",
            core.stats().cycles
        )));
    }
    let start_stats = core.stats().clone();

    // Deterministic crash injection for the chaos suite: die mid-way
    // through the interval containing the named measured cycle.
    if ctx.chaos_armed {
        if let Some(kill) = cfg.chaos_kill_at {
            let in_final = index == n - 1;
            let past_start = kill > start_cycle;
            let before_end = in_final || kill < (index + 1) * interval;
            if past_start && before_end {
                let _ = core.run_to_cycle(kill);
                eprintln!("chaos: aborting split worker in interval {index} at cycle {kill}");
                std::process::abort();
            }
        }
    }

    let (end_cycle, result) = if index == n - 1 {
        // The last interval finishes the run: same double-finalize
        // epilogue as the serial path, so every memory-side field of
        // the result is bit-identical to it.
        let stats = core.resume_run().map_err(SimError::from)?;
        let params = profiles::params_by_name(&spec.profile)?;
        let result = collect_result(spec, params.category, levels.to_vec(), core, stats, None);
        (result.stats.cycles, Some(result))
    } else {
        let bound = (index + 1) * interval;
        let done = core.run_to_cycle(bound).map_err(SimError::from)?;
        if done {
            return Err(split_err(format!(
                "interval {index} hit the commit target before boundary {bound}"
            )));
        }
        if core.stats().cycles != bound {
            return Err(split_err(format!(
                "interval {index} paused at cycle {} instead of boundary {bound} \
                 (a fast-forward skip crossed the pin)",
                core.stats().cycles
            )));
        }
        (bound, None)
    };
    let end_stats = match &result {
        Some(r) => r.stats.clone(),
        None => core.stats().clone(),
    };
    let delta = StatsDelta::between(&start_stats, &end_stats)
        .map_err(|e| split_err(format!("interval {index}: {e}")))?;
    timer.stop();
    Ok(SimulatedInterval {
        record: IntervalRecord {
            index,
            start_cycle,
            end_cycle,
            delta,
            result,
            cached: false,
        },
        end_stats,
    })
}

/// Two-sided 95% Student-t critical value (normal beyond 30 df) — the
/// sample counts here are small enough that z would under-cover.
fn t95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    match df {
        0 => f64::INFINITY,
        1..=30 => TABLE[(df - 1) as usize],
        _ => 1.96,
    }
}

/// The systematic-sampling extrapolation: estimate committed
/// instructions per full interval from the sampled ones, with a
/// finite-population-corrected standard error; total cycles are exact,
/// so the CPI interval is the (monotone, decreasing) transform of the
/// committed-instruction interval.
fn estimate(
    frame: u64,
    stride: u64,
    offset: u64,
    samples: &[(u64, u64)], // (index, committed_insts) over full intervals
    tail_insts: u64,
    total_cycles: u64,
) -> SamplingEstimate {
    let n = samples.len() as u64;
    let xs: Vec<f64> = samples.iter().map(|&(_, c)| c as f64).collect();
    let mean = xs.iter().sum::<f64>() / (n as f64).max(1.0);
    let var = if n > 1 {
        xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    // Finite-population correction: sampling n of `frame` without
    // replacement shrinks the estimator variance by (N-n)/(N-1).
    let fpc = if frame > 1 {
        ((frame - n) as f64 / (frame - 1) as f64).max(0.0)
    } else {
        0.0
    };
    let stderr = (var / (n as f64).max(1.0) * fpc).sqrt();
    let half = if n > 1 { t95(n - 1) * stderr } else { 0.0 };
    let est_insts = frame as f64 * mean + tail_insts as f64;
    let lo_insts = (frame as f64 * (mean - half) + tail_insts as f64).max(0.0);
    let hi_insts = frame as f64 * (mean + half) + tail_insts as f64;
    let cpi = |insts: f64| {
        if insts > 0.0 {
            total_cycles as f64 / insts
        } else {
            f64::INFINITY
        }
    };
    SamplingEstimate {
        frame,
        sampled: n,
        stride,
        offset,
        mean_insts: mean,
        stderr_insts: stderr,
        tail_insts,
        total_cycles,
        est_insts,
        ci95_insts: (lo_insts, hi_insts),
        est_cpi: cpi(est_insts),
        ci95_cpi: (cpi(hi_insts), cpi(lo_insts)),
    }
}

/// Runs `spec` interval-parallel under `dir` (the split store root).
///
/// Exact mode returns a [`RunResult`] bit-identical to
/// [`runner::run`](crate::runner::run) for the same spec — stitched
/// from per-interval deltas and cross-checked against the final
/// cumulative state before being trusted. Sampling mode returns the
/// extrapolated estimate with confidence intervals instead.
///
/// # Errors
///
/// The usual taxonomy, plus [`SimError::Split`] for any unstitchable
/// state (off-boundary pause, delta underflow, stitch mismatch);
/// `Split` errors are deterministic and the recovery is to wipe the
/// store directory and re-run.
pub fn run_split(spec: &RunSpec, cfg: &SplitConfig, dir: &Path) -> Result<SplitOutcome, SimError> {
    if cfg.interval_cycles == 0 {
        return Err(split_err("interval_cycles must be positive"));
    }
    if spec.fault.is_some() {
        return Err(split_err("fault-injected specs cannot be split"));
    }
    let store = SplitStore::new(dir, spec, cfg.interval_cycles);

    // Phase 1, or its cached equivalent. A fresh sweep also hands back
    // its boundary frames so phase 2 can skip the store round-trip.
    let sweep_started = Instant::now();
    let (manifest, sweep_reused, frames) = match store.load_manifest(spec) {
        Some(m) => {
            metrics::counter_add(METRIC_SPLIT_SWEEP_REUSED, 1);
            (m, true, None)
        }
        None => {
            let (m, frames) = sweep(spec, cfg.interval_cycles, &store)?;
            (m, false, frames)
        }
    };
    let sweep_secs = if sweep_reused {
        0.0
    } else {
        sweep_started.elapsed().as_secs_f64()
    };
    let n = manifest.boundary_now.len() as u64;

    // Which intervals phase 2 needs. A stride that would leave fewer
    // than two full intervals in the sample degrades to a census —
    // a one-point sample has no variance estimate, so its "interval"
    // would be a dishonest zero-width point.
    let frame = n - 1; // full-length intervals; n-1 is the tail
    let mut stride = cfg.sample_every.unwrap_or(1).max(1);
    if frame.div_ceil(stride.max(1)) < 2 {
        stride = 1;
    }
    let offset = if frame > 0 {
        spec_hash(spec) % stride.min(frame).max(1)
    } else {
        0
    };
    let wanted: Vec<u64> = match cfg.sample_every {
        None => (0..n).collect(),
        Some(_) => {
            let mut v: Vec<u64> = (0..frame).filter(|i| i % stride == offset).collect();
            v.push(n - 1);
            v
        }
    };

    // Resume: anything already journaled is served from the store.
    let cached_records = store.load_records(spec);
    let chaos_armed = cfg.chaos_kill_at.is_some() && cached_records.is_empty();
    let have: std::collections::BTreeMap<u64, IntervalRecord> = cached_records
        .into_iter()
        .filter(|r| r.index < n && wanted.contains(&r.index))
        .map(|r| (r.index, r))
        .collect();
    let todo: Vec<u64> = wanted
        .iter()
        .copied()
        .filter(|i| !have.contains_key(i))
        .collect();

    // Phase 2: fan the missing intervals across worker threads. Each
    // worker builds one core up front and restores over it for every
    // interval it claims; the shared cursor hands out work.
    let phase2_started = Instant::now();
    let ctx = Phase2 {
        spec,
        cfg,
        store: &store,
        manifest: &manifest,
        frames: frames.as_deref(),
        chaos_armed,
    };
    let cursor = AtomicUsize::new(0);
    let failed = AtomicBool::new(false);
    let simulated: Mutex<Vec<SimulatedInterval>> = Mutex::new(Vec::new());
    let first_error: Mutex<Option<SimError>> = Mutex::new(None);
    let journal_lock = Mutex::new(());
    std::thread::scope(|scope| {
        for _ in 0..cfg.workers.max(1).min(todo.len().max(1)) {
            scope.spawn(|| {
                let (mut core, levels) = match build_core(spec, cfg.interval_cycles) {
                    Ok(built) => built,
                    Err(e) => {
                        failed.store(true, Ordering::Relaxed);
                        first_error.lock().unwrap().get_or_insert(e);
                        return;
                    }
                };
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    if k >= todo.len() || failed.load(Ordering::Relaxed) {
                        return;
                    }
                    let index = todo[k];
                    match simulate_interval(&ctx, &mut core, &levels, index) {
                        Ok(sim) => {
                            let line = store.encode_record(spec, &sim.record);
                            let append = {
                                let _guard = journal_lock.lock().unwrap();
                                store.append_line(&line)
                            };
                            match append {
                                Ok(()) => simulated.lock().unwrap().push(sim),
                                Err(e) => {
                                    failed.store(true, Ordering::Relaxed);
                                    first_error.lock().unwrap().get_or_insert(e);
                                }
                            }
                        }
                        Err(e) => {
                            failed.store(true, Ordering::Relaxed);
                            first_error.lock().unwrap().get_or_insert(e);
                        }
                    }
                }
            });
        }
    });
    if let Some(e) = first_error.into_inner().unwrap() {
        return Err(e);
    }
    let phase2_secs = phase2_started.elapsed().as_secs_f64();

    // Merge cached + fresh, ascending.
    let fresh = simulated.into_inner().unwrap();
    let simulated_count = fresh.len() as u64;
    let cached_count = have.len() as u64;
    metrics::counter_add(METRIC_SPLIT_SIMULATED, simulated_count);
    metrics::counter_add(METRIC_SPLIT_CACHED, cached_count);
    let mut end_stats: std::collections::BTreeMap<u64, CoreStats> = Default::default();
    let mut records: std::collections::BTreeMap<u64, IntervalRecord> = have;
    for sim in fresh {
        end_stats.insert(sim.record.index, sim.end_stats);
        records.insert(sim.record.index, sim.record);
    }
    let records: Vec<IntervalRecord> = records.into_values().collect();
    if records.len() as u64 != wanted.len() as u64 {
        return Err(split_err(format!(
            "{} of {} wanted intervals present after phase 2",
            records.len(),
            wanted.len()
        )));
    }

    // Stitch (exact) or extrapolate (sampling).
    let (result, sampling) = match cfg.sample_every {
        None => {
            let result = stitch(spec, cfg, &manifest, &records, &end_stats)?;
            (Some(result), None)
        }
        Some(_) => {
            let samples: Vec<(u64, u64)> = records
                .iter()
                .filter(|r| r.index < frame)
                .map(|r| (r.index, r.delta.committed_insts()))
                .collect();
            let tail = records
                .iter()
                .find(|r| r.index == n - 1)
                .map(|r| r.delta.committed_insts())
                .ok_or_else(|| split_err("sampling mode lost the tail interval"))?;
            let est = estimate(frame, stride, offset, &samples, tail, manifest.final_cycles);
            let line = obj(vec![
                ("schema", num(SPLIT_SCHEMA)),
                ("hash", s(format!("{:016x}", store.hash))),
                ("kind", s("sampling")),
                ("frame", num(est.frame)),
                ("sampled", num(est.sampled)),
                ("stride", num(est.stride)),
                ("offset", num(est.offset)),
                ("mean_insts", Json::Num(est.mean_insts)),
                ("stderr_insts", Json::Num(est.stderr_insts)),
                ("tail_insts", num(est.tail_insts)),
                ("total_cycles", num(est.total_cycles)),
                ("est_insts", Json::Num(est.est_insts)),
                ("ci95_insts_lo", Json::Num(est.ci95_insts.0)),
                ("ci95_insts_hi", Json::Num(est.ci95_insts.1)),
                ("est_cpi", Json::Num(est.est_cpi)),
                ("ci95_cpi_lo", Json::Num(est.ci95_cpi.0)),
                ("ci95_cpi_hi", Json::Num(est.ci95_cpi.1)),
            ])
            .encode();
            store.append_line(&line)?;
            (None, Some(est))
        }
    };

    Ok(SplitOutcome {
        result,
        intervals: records,
        n_intervals: n,
        simulated: simulated_count,
        cached: cached_count,
        sweep_reused,
        sampling,
        sweep_secs,
        phase2_secs,
    })
}

/// The stitcher: sums the per-interval deltas onto the fresh
/// post-warm-up base and demands bit-identity with the final interval's
/// cumulative state before handing the result out. Conservation is
/// re-checked on the stitched totals — CPI buckets must still cover
/// every cycle.
fn stitch(
    spec: &RunSpec,
    cfg: &SplitConfig,
    manifest: &Manifest,
    records: &[IntervalRecord],
    end_stats: &std::collections::BTreeMap<u64, CoreStats>,
) -> Result<RunResult, SimError> {
    let (mut config, _policy) = spec.model.build();
    apply_spec_overrides(&mut config, spec);
    let mut total = CoreStats {
        level_cycles: vec![0; config.levels.len()],
        cpi_stack: vec![[0; CPI_BUCKETS]; config.levels.len()],
        ..CoreStats::default()
    };
    for (k, rec) in records.iter().enumerate() {
        if rec.index != k as u64 {
            return Err(split_err(format!(
                "exact mode is missing interval {k} (found {})",
                rec.index
            )));
        }
        if rec.start_cycle != rec.index * cfg.interval_cycles || rec.start_cycle != total.cycles {
            return Err(split_err(format!(
                "interval {} starts at cycle {} but the stitch is at {}",
                rec.index, rec.start_cycle, total.cycles
            )));
        }
        rec.delta
            .apply_to(&mut total)
            .map_err(|e| split_err(format!("stitching interval {}: {e}", rec.index)))?;
        // Cross-check freshly simulated intervals against the worker's
        // cumulative end state: the stitch must agree boundary by
        // boundary, not just in the final total.
        if let Some(end) = end_stats.get(&rec.index) {
            if &total != end {
                return Err(split_err(format!(
                    "stitched totals diverge from the cumulative state at interval {}",
                    rec.index
                )));
            }
        }
    }
    if total.cycles != manifest.final_cycles || total.committed_insts != manifest.final_insts {
        return Err(split_err(format!(
            "stitched {} cycles / {} insts, sweep measured {} / {}",
            total.cycles, total.committed_insts, manifest.final_cycles, manifest.final_insts
        )));
    }
    if total.cpi_stack_cycles() != total.cycles {
        return Err(split_err(
            "stitched CPI stack does not cover the stitched cycles",
        ));
    }
    let last = records.last().ok_or_else(|| split_err("no intervals"))?;
    let mut result = last
        .result
        .clone()
        .ok_or_else(|| split_err("final interval carries no run result"))?;
    if result.stats != total {
        return Err(split_err(
            "final interval's cumulative stats disagree with the stitched totals",
        ));
    }
    result.stats = total;
    Ok(result)
}

/// Wipes the split store for `spec` at this interval length — the
/// recovery action for a [`SimError::Split`].
pub fn discard_store(spec: &RunSpec, interval_cycles: u64, dir: &Path) {
    SplitStore::new(dir, spec, interval_cycles).discard();
}

// Re-exported so integration tests can sanity-check the estimator
// without driving a simulation.
#[doc(hidden)]
pub fn estimate_for_tests(
    frame: u64,
    stride: u64,
    offset: u64,
    samples: &[(u64, u64)],
    tail_insts: u64,
    total_cycles: u64,
) -> SamplingEstimate {
    estimate(frame, stride, offset, samples, tail_insts, total_cycles)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn t_table_is_monotone_toward_normal() {
        assert!(t95(1) > t95(2));
        assert!(t95(30) > 1.96);
        assert_eq!(t95(31), 1.96);
        assert!(t95(0).is_infinite());
    }

    #[test]
    fn estimator_degenerate_cases() {
        // A census (every interval sampled) has zero variance left.
        let samples: Vec<(u64, u64)> = (0..4).map(|i| (i, 100 + i)).collect();
        let est = estimate(4, 1, 0, &samples, 50, 2_000);
        assert_eq!(est.sampled, 4);
        assert!(est.stderr_insts.abs() < 1e-12);
        assert!((est.ci95_insts.0 - est.ci95_insts.1).abs() < 1e-9);
        // Point estimate is exact for a census.
        let true_total = (100 + 101 + 102 + 103 + 50) as f64;
        assert!((est.est_insts - true_total).abs() < 1e-9);
        // CPI endpoints invert the committed-instruction endpoints.
        assert!((est.est_cpi - 2_000.0 / true_total).abs() < 1e-12);
    }

    #[test]
    fn estimator_interval_widens_with_variance() {
        let tight: Vec<(u64, u64)> = vec![(0, 100), (2, 102), (4, 98)];
        let wide: Vec<(u64, u64)> = vec![(0, 10), (2, 190), (4, 100)];
        let a = estimate(20, 2, 0, &tight, 0, 10_000);
        let b = estimate(20, 2, 0, &wide, 0, 10_000);
        assert!(b.ci95_insts.1 - b.ci95_insts.0 > a.ci95_insts.1 - a.ci95_insts.0);
        assert!(a.ci95_cpi.0 <= a.est_cpi && a.est_cpi <= a.ci95_cpi.1);
    }

    #[test]
    fn an_append_after_a_torn_line_keeps_its_record() {
        let dir = std::env::temp_dir().join(format!("mlpwin-split-torn-{}", std::process::id()));
        fs::remove_dir_all(&dir).ok();
        let spec = RunSpec::new("mcf", crate::SimModel::Dynamic).with_budget(1_000, 1_000);
        let store = SplitStore::new(&dir, &spec, 1_000);
        let record = |index: u64| IntervalRecord {
            index,
            start_cycle: index * 1_000,
            end_cycle: (index + 1) * 1_000,
            delta: StatsDelta::from_raw(CoreStats::default()),
            result: None,
            cached: false,
        };
        store
            .append_line(&store.encode_record(&spec, &record(0)))
            .expect("first append");
        // A kill mid-append leaves a fragment with no newline.
        let torn = store.encode_record(&spec, &record(7));
        let mut f = fs::OpenOptions::new()
            .append(true)
            .open(store.journal_path())
            .expect("open journal");
        f.write_all(&torn.as_bytes()[..torn.len() / 2])
            .expect("write fragment");
        store
            .append_line(&store.encode_record(&spec, &record(1)))
            .expect("append after the fragment");
        let indices: Vec<u64> = store.load_records(&spec).iter().map(|r| r.index).collect();
        assert_eq!(indices, [0, 1], "the record after the fragment survives");
        fs::remove_dir_all(&dir).ok();
    }
}
