//! Experiment execution.
//!
//! A [`RunSpec`] names a `(profile, model)` pair plus warm-up and
//! measurement budgets; [`run`] executes it and returns a [`RunResult`]
//! with everything the tables and figures consume, or a typed
//! [`SimError`] when the spec cannot complete. [`run_matrix`] executes
//! many specs across threads (each run is independent and deterministic,
//! so parallelism cannot change any result) with per-run isolation: a
//! panicking or livelocking spec becomes an `Err` entry while its
//! siblings keep running. [`run_recoverable`] adds mid-run snapshots for
//! the worker processes a campaign controller supervises.

use crate::error::{panic_message, SimError};
use crate::journal::spec_hash;
use crate::metrics::{self, ScopedTimer};
use crate::model::SimModel;
use crate::progress::Progress;
use crate::signals;
use crate::snapshot::{
    self, LoadedSnapshot, SnapshotPhase, SnapshotPolicy, SnapshotStore, SnapshotWriter,
    DEFAULT_SNAPSHOT_KEEP,
};
use mlpwin_branch::PredictorStats;
use mlpwin_energy::RunCounters;
use mlpwin_isa::Cycle;
use mlpwin_memsys::ProvenanceStats;
use mlpwin_ooo::{Core, CoreConfig, CoreStats, EngineCounters, LevelSpec, WindowPolicy};
use mlpwin_workloads::{profiles, Category, FaultyWorkload, Workload};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Histogram of wall-clock microseconds spent building each core.
pub const METRIC_PHASE_BUILD: &str = "mlpwin_phase_build_us";
/// Histogram of wall-clock microseconds spent in warm-up.
pub const METRIC_PHASE_WARMUP: &str = "mlpwin_phase_warmup_us";
/// Histogram of wall-clock microseconds spent in measured simulation.
pub const METRIC_PHASE_MEASURE: &str = "mlpwin_phase_measure_us";
/// Counter of specs that completed successfully.
pub const METRIC_SPECS_COMPLETED: &str = "mlpwin_specs_completed_total";
/// Counter of specs that failed.
pub const METRIC_SPECS_FAILED: &str = "mlpwin_specs_failed_total";
/// Counter of simulated cycles across all measured phases.
pub const METRIC_SIM_CYCLES: &str = "mlpwin_sim_cycles_total";
/// Counter of simulated (committed) instructions across all measured
/// phases.
pub const METRIC_SIM_INSTS: &str = "mlpwin_sim_insts_total";
/// Gauge: the latest run's measured phase in simulated kilocycles per
/// wall-clock second.
pub const METRIC_RUN_KCPS: &str = "mlpwin_run_kcps";
/// Gauge: the latest run's measured phase in million simulated
/// instructions per wall-clock second.
pub const METRIC_RUN_MIPS: &str = "mlpwin_run_mips";
/// Counter of wake events posted into the core's scheduler queues.
pub const METRIC_EVENTS_POSTED: &str = "mlpwin_events_posted_total";
/// Counter of wake events popped from the core's scheduler queues.
pub const METRIC_EVENTS_POPPED: &str = "mlpwin_events_popped_total";
/// Counter of cycles the wake plan advanced in bulk instead of stepping.
pub const METRIC_CYCLES_SKIPPED: &str = "mlpwin_cycles_skipped_total";
/// Counter of cycles executed as real pipeline steps.
pub const METRIC_CYCLES_STEPPED: &str = "mlpwin_cycles_stepped_total";
/// Gauge: the latest run's fraction of cycles advanced in bulk, 0..=1.
pub const METRIC_SKIP_FRACTION: &str = "mlpwin_skip_fraction";
/// Counter of host nanoseconds the simulating thread spends on periodic
/// snapshots: the image encode plus its handoff to the background
/// writer (zero for snapshot-free runs).
pub const METRIC_SNAPSHOT_HOST_NS: &str = "mlpwin_snapshot_host_ns_total";
/// Counter of host nanoseconds the background writer spends making
/// periodic snapshots durable (temp file, `fsync`, rename, prune), off
/// the simulating thread.
pub const METRIC_SNAPSHOT_WRITE_NS: &str = "mlpwin_snapshot_write_ns_total";

/// A deliberately injected failure, for testing the harness's own
/// recovery paths (see `DESIGN.md` §"Error handling").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSpec {
    /// The workload panics once it has produced this many instructions
    /// (models a crash in workload or model code).
    PanicAt(u64),
    /// The commit stage freezes after this many lifetime commits (models
    /// a livelock bug; the watchdog must catch it).
    LivelockAt(u64),
}

/// The text form `panic@N` / `livelock@N`: the `--fault` flag's value
/// and the fault's part of the spec hash.
impl std::fmt::Display for FaultSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpec::PanicAt(n) => write!(f, "panic@{n}"),
            FaultSpec::LivelockAt(n) => write!(f, "livelock@{n}"),
        }
    }
}

impl std::str::FromStr for FaultSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<FaultSpec, String> {
        let (kind, at) = s
            .split_once('@')
            .ok_or_else(|| format!("fault `{s}` is not kind@count"))?;
        let at = at.parse().map_err(|_| format!("`{at}` is not a number"))?;
        match kind {
            "panic" => Ok(FaultSpec::PanicAt(at)),
            "livelock" => Ok(FaultSpec::LivelockAt(at)),
            other => Err(format!("unknown fault kind `{other}`")),
        }
    }
}

/// One experiment to run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Workload profile name (Table 3).
    pub profile: String,
    /// Processor model.
    pub model: SimModel,
    /// Warm-up instructions (counters reset afterwards).
    pub warmup: u64,
    /// Measured instructions.
    pub insts: u64,
    /// Workload seed.
    pub seed: u64,
    /// Override of the core's no-commit watchdog budget (cycles);
    /// `None` keeps [`mlpwin_ooo::DEFAULT_WATCHDOG_CYCLES`].
    pub watchdog_cycles: Option<u64>,
    /// Per-phase wall-cycle deadline; `None` means unbounded.
    pub deadline_cycles: Option<u64>,
    /// Injected fault, test-only.
    pub fault: Option<FaultSpec>,
    /// Interval time-series epoch (cycles); `None` collects no series.
    pub interval_cycles: Option<u64>,
}

impl RunSpec {
    /// A spec with the default experiment budgets (250k warm-up + 100k
    /// measured — scaled-down stand-ins for the paper's 16G + 100M; the
    /// warm-up must populate each profile's cache-resident hot region).
    pub fn new(profile: &str, model: SimModel) -> RunSpec {
        RunSpec {
            profile: profile.to_string(),
            model,
            warmup: 250_000,
            insts: 100_000,
            seed: 1,
            watchdog_cycles: None,
            deadline_cycles: None,
            fault: None,
            interval_cycles: None,
        }
    }

    /// Replaces the instruction budgets.
    pub fn with_budget(mut self, warmup: u64, insts: u64) -> RunSpec {
        self.warmup = warmup;
        self.insts = insts;
        self
    }

    /// Sets the watchdog budget (cycles without a commit before the run
    /// fails with a stall error).
    pub fn with_watchdog(mut self, cycles: u64) -> RunSpec {
        self.watchdog_cycles = Some(cycles);
        self
    }

    /// Bounds each simulation phase (warm-up, measurement) to `cycles`
    /// wall cycles.
    pub fn with_deadline(mut self, cycles: u64) -> RunSpec {
        self.deadline_cycles = Some(cycles);
        self
    }

    /// Injects a fault (test-only).
    pub fn with_fault(mut self, fault: FaultSpec) -> RunSpec {
        self.fault = Some(fault);
        self
    }

    /// Collects the interval time series (IPC, level, occupancies,
    /// outstanding misses) every `epoch` cycles of measured time.
    pub fn with_intervals(mut self, epoch: u64) -> RunSpec {
        self.interval_cycles = Some(epoch);
        self
    }

    /// The worker-thread count every experiment binary shares: the
    /// `MLPWIN_THREADS` environment variable when set to a positive
    /// integer, otherwise the machine's available parallelism.
    pub fn threads_from_env() -> usize {
        std::env::var("MLPWIN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
    }
}

/// Everything a finished run reports.
///
/// Equality covers every *result* field but not
/// [`engine`](RunResult::engine): that is host-side scheduler telemetry, and two
/// runs of one spec are "the same result" exactly when every simulated
/// statistic matches — however their skip schedules differed. This is
/// what lets journal round-trips, the split stitcher, and A/B
/// comparisons with the fast-forward on and off assert full-struct
/// identity.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The spec that produced this result.
    pub spec: RunSpec,
    /// Table 3 category of the profile.
    pub category: Category,
    /// Pipeline statistics.
    pub stats: CoreStats,
    /// Branch predictor statistics.
    pub predictor: PredictorStats,
    /// Fig. 11 line-provenance breakdown (finalized).
    pub provenance: ProvenanceStats,
    /// Cycle of each demand L2 miss (Fig. 4 histogram input).
    pub l2_miss_cycles: Vec<Cycle>,
    /// L1 (I+D) accesses, for the energy model.
    pub l1_accesses: u64,
    /// L2 accesses, for the energy model.
    pub l2_accesses: u64,
    /// Main-memory line transfers, for the energy model.
    pub dram_lines: u64,
    /// Average load latency as seen by committed loads (Table 3).
    pub avg_load_latency: f64,
    /// The level ladder the model ran with (for energy weighting).
    pub levels: Vec<LevelSpec>,
    /// Scheduler event-engine telemetry (posts, pops, skipped versus
    /// stepped cycles). Host-side only: deliberately excluded from the
    /// journal codec, because the skip schedule legitimately differs
    /// between executions with the fast-forward on and off while every
    /// journaled field stays bit-identical. Zero for results decoded
    /// from a journal.
    pub engine: EngineCounters,
}

impl PartialEq for RunResult {
    fn eq(&self, other: &RunResult) -> bool {
        // `engine` deliberately omitted — see the struct doc.
        self.spec == other.spec
            && self.category == other.category
            && self.stats == other.stats
            && self.predictor == other.predictor
            && self.provenance == other.provenance
            && self.l2_miss_cycles == other.l2_miss_cycles
            && self.l1_accesses == other.l1_accesses
            && self.l2_accesses == other.l2_accesses
            && self.dram_lines == other.dram_lines
            && self.avg_load_latency.to_bits() == other.avg_load_latency.to_bits()
            && self.levels == other.levels
    }
}

impl RunResult {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Builds the energy model's activity counters for this run;
    /// `None` when the level ladder is empty (possible only for results
    /// decoded from a hand-edited journal).
    pub fn run_counters(&self) -> Option<RunCounters> {
        let provisioned = *self.levels.last()?;
        let level_cycles = self
            .levels
            .iter()
            .copied()
            .zip(self.stats.level_cycles.iter().copied())
            .collect();
        Some(RunCounters {
            cycles: self.stats.cycles,
            dispatched: self.stats.dispatched_total,
            issued: self.stats.issued_total,
            l1_accesses: self.l1_accesses,
            l2_accesses: self.l2_accesses,
            dram_lines: self.dram_lines,
            level_cycles,
            provisioned,
        })
    }
}

/// Runs one experiment.
///
/// # Errors
///
/// [`SimError::UnknownProfile`] for a bad profile name (with a
/// nearest-name suggestion), [`SimError::Config`] for a model
/// configuration that fails validation, and [`SimError::Pipeline`] when
/// the watchdog or deadline fires mid-run. An injected
/// [`FaultSpec::PanicAt`] panic propagates — isolation is the matrix
/// runner's job.
pub fn run(spec: &RunSpec) -> Result<RunResult, SimError> {
    run_with(spec, None)
}

/// Runs one experiment with crash recovery: resume from the latest
/// valid snapshot when one exists, and snapshot periodically while
/// running.
///
/// Snapshots are keyed by the campaign journal's
/// [`spec_hash`], so a re-invocation with the
/// same spec finds its own images and nobody else's. A snapshot that
/// fails to decode or restore is quarantined and the previous rotation
/// (or a fresh start) takes over — corruption costs re-simulated cycles,
/// never the run. On success the spec's snapshots are deleted: a
/// finished run must not resume from a stale image.
///
/// Each attempt saves its images on one background
/// `SnapshotWriter` thread, so the simulation does not wait for
/// `fsync`. A crash can therefore lose the image still in flight, and
/// the resume starts from the one before it — still exactly.
///
/// Results are bit-identical to [`run`] for the same spec: the snapshot
/// cadence only adds step-boundary save points and never changes what
/// the pipeline does (the core's fast-forward pins cadence points
/// whether or not a sink is installed).
///
/// # Errors
///
/// The same taxonomy as [`run`].
pub fn run_recoverable(spec: &RunSpec, snapshots: &SnapshotPolicy) -> Result<RunResult, SimError> {
    run_with(spec, Some(snapshots))
}

/// The one run body behind [`run`] and [`run_recoverable`]: builds the
/// machine, dispatches an injected [`FaultSpec::PanicAt`], and — given a
/// snapshot policy — resumes from and saves snapshots.
fn run_with(spec: &RunSpec, snapshots: Option<&SnapshotPolicy>) -> Result<RunResult, SimError> {
    let params = profiles::params_by_name(&spec.profile)?;
    let store =
        snapshots.map(|p| SnapshotStore::new(&p.dir, spec_hash(spec), DEFAULT_SNAPSHOT_KEEP));
    let store = store.as_ref();
    let mut resume = store.and_then(SnapshotStore::load_latest);
    loop {
        let (mut config, policy) = spec.model.build();
        apply_spec_overrides(&mut config, spec);
        if let Some(snapshots) = snapshots {
            config.snapshot_cycles = Some(snapshots.cadence_cycles.max(1));
        }
        let workload = profiles::by_name(&spec.profile, spec.seed)?;
        let attempt = if let Some(FaultSpec::PanicAt(at)) = spec.fault {
            execute(
                spec,
                params.category,
                config,
                policy,
                FaultyWorkload::panic_at(workload, at),
                store,
                resume.as_ref(),
            )
        } else {
            execute(
                spec,
                params.category,
                config,
                policy,
                workload,
                store,
                resume.as_ref(),
            )
        };
        match attempt {
            Ok(result) => {
                if let Some(store) = store {
                    store.discard();
                }
                return Ok(result);
            }
            Err(ExecError::Sim(error)) => return Err(error),
            Err(ExecError::Restore(detail)) => {
                // Only a resume image can fail to restore, and each
                // failed restore quarantines exactly one file, so this
                // loop terminates: eventually `resume` is `None` and the
                // run starts fresh.
                let (store, snap) = store
                    .zip(resume.take())
                    .expect("restore errors imply a snapshot");
                eprintln!(
                    "warning: snapshot {}: {detail}; quarantined, falling back",
                    snap.path.display()
                );
                store.quarantine(&snap.path);
                resume = store.load_latest();
            }
        }
    }
}

/// Applies the spec's per-run configuration overrides to a model-built
/// config — shared by the plain and recoverable paths so both run the
/// exact same machine.
pub(crate) fn apply_spec_overrides(config: &mut CoreConfig, spec: &RunSpec) {
    // Debugging aid: rerun any spec with the core's stall fast-forward
    // disabled. Results are bit-identical either way (the fastpath
    // equivalence suites assert it), so this only trades speed for a
    // single-stepped execution — deliberately not part of RunSpec, so
    // journal lines and spec hashes are unaffected.
    if std::env::var_os("MLPWIN_NO_FAST_FORWARD").is_some() {
        config.fast_forward = false;
    }
    if let Some(cycles) = spec.watchdog_cycles {
        config.watchdog_cycles = cycles;
    }
    if spec.deadline_cycles.is_some() {
        config.deadline_cycles = spec.deadline_cycles;
    }
    if let Some(FaultSpec::LivelockAt(at)) = spec.fault {
        config.freeze_commit_after = Some(at);
    }
    if spec.interval_cycles.is_some() {
        config.interval_cycles = spec.interval_cycles;
    }
}

/// The shared run epilogue: throughput metrics, memory-system
/// finalization, and the [`RunResult`] assembly.
pub(crate) fn collect_result<W: Workload>(
    spec: &RunSpec,
    category: Category,
    levels: Vec<LevelSpec>,
    core: &mut Core<W>,
    stats: CoreStats,
    measure_secs: Option<f64>,
) -> RunResult {
    metrics::counter_add(METRIC_SIM_CYCLES, stats.cycles);
    metrics::counter_add(METRIC_SIM_INSTS, stats.committed_insts);
    if let Some(secs) = measure_secs.filter(|&s| s > 0.0) {
        metrics::gauge_set(METRIC_RUN_KCPS, stats.cycles as f64 / 1e3 / secs);
        metrics::gauge_set(METRIC_RUN_MIPS, stats.committed_insts as f64 / 1e6 / secs);
    }
    let engine = core.engine_counters();
    metrics::counter_add(METRIC_EVENTS_POSTED, engine.events_posted);
    metrics::counter_add(METRIC_EVENTS_POPPED, engine.events_popped);
    metrics::counter_add(METRIC_CYCLES_SKIPPED, engine.skipped_cycles);
    metrics::counter_add(METRIC_CYCLES_STEPPED, engine.stepped_cycles);
    metrics::gauge_set(METRIC_SKIP_FRACTION, engine.skip_fraction());
    metrics::counter_add(METRIC_SNAPSHOT_HOST_NS, core.snapshot_host_ns());
    core.mem_mut().finalize();
    let mem = core.mem();
    RunResult {
        spec: spec.clone(),
        category,
        predictor: core.predictor().stats().clone(),
        provenance: *mem.provenance(),
        l2_miss_cycles: mem.stats().l2_demand_miss_cycles.clone(),
        l1_accesses: mem.l1d().stats().hits
            + mem.l1d().stats().misses
            + mem.l1i().stats().hits
            + mem.l1i().stats().misses,
        l2_accesses: mem.l2().stats().hits + mem.l2().stats().misses,
        dram_lines: mem.dram().stats().requests,
        avg_load_latency: stats.avg_load_latency(),
        levels,
        stats,
        engine,
    }
}

/// How one recoverable attempt failed: a snapshot that would not
/// restore (quarantine it and fall back to an older one) versus an
/// ordinary simulation error (final).
enum ExecError {
    Restore(String),
    Sim(SimError),
}

/// The monomorphic run body, generic over the workload so the common
/// path stays free of dynamic dispatch. With a store it installs the
/// snapshot sink; with a resume image it restores it and re-enters the
/// driver phase the image was taken in.
fn execute<W: Workload>(
    spec: &RunSpec,
    category: Category,
    config: CoreConfig,
    policy: Box<dyn WindowPolicy>,
    workload: W,
    store: Option<&SnapshotStore>,
    resume: Option<&LoadedSnapshot>,
) -> Result<RunResult, ExecError> {
    let levels = config.levels.clone();
    let build_timer = ScopedTimer::start(METRIC_PHASE_BUILD);
    let mut core = Core::try_new(config, workload, policy).map_err(|e| ExecError::Sim(e.into()))?;
    build_timer.stop();

    // The sink must label each image with the driver phase it was taken
    // in; the shared cell is how the phase transitions reach the
    // closure. The writer is shared with the sink so the run can drain
    // it before reporting; whichever handle drops last joins its
    // thread, so every offered image is saved before this function
    // returns — on success, error and unwind alike — and thus before
    // `run_with` discards the store.
    let phase = Rc::new(Cell::new(SnapshotPhase::Warmup));
    let writer = store.map(|store| Rc::new(SnapshotWriter::spawn(store.clone(), resume.is_none())));
    if let Some(writer) = &writer {
        let phase = Rc::clone(&phase);
        let writer = Rc::clone(writer);
        core.set_snapshot_sink(Box::new(move |cycle, image| {
            snapshot::hooks::on_offer(cycle);
            writer.submit(phase.get(), cycle, image);
            if signals::interrupted() {
                // Unwind only once the image for this very cycle is on
                // disk: the next invocation resumes from here.
                writer.sync();
                std::panic::panic_any(signals::INTERRUPT_PANIC);
            }
        }));
    }
    // The successful epilogue: wait for the last images, then report
    // the writer's save time beside the core's encode-and-handoff time.
    let finish = |core: &mut Core<W>, stats: CoreStats, secs: Option<f64>| {
        if let Some(writer) = &writer {
            writer.sync();
            metrics::counter_add(METRIC_SNAPSHOT_WRITE_NS, writer.write_ns());
        }
        collect_result(spec, category, levels, core, stats, secs)
    };

    let sim = |e: mlpwin_ooo::PipelineError| ExecError::Sim(e.into());
    match resume {
        None => {
            if spec.warmup > 0 {
                let warmup_timer = ScopedTimer::start(METRIC_PHASE_WARMUP);
                core.run_warmup(spec.warmup).map_err(sim)?;
                warmup_timer.stop();
            }
            phase.set(SnapshotPhase::Measure);
            let measure_timer = ScopedTimer::start(METRIC_PHASE_MEASURE);
            let stats = core.run(spec.insts).map_err(sim)?;
            let secs = measure_timer.stop();
            Ok(finish(&mut core, stats, secs))
        }
        Some(snap) => {
            core.restore(&snap.payload)
                .map_err(|e| ExecError::Restore(e.to_string()))?;
            if core.cycle() != snap.cycle {
                return Err(ExecError::Restore(format!(
                    "restored cycle {} does not match the frame's {}",
                    core.cycle(),
                    snap.cycle
                )));
            }
            match snap.phase {
                SnapshotPhase::Warmup => {
                    let warmup_timer = ScopedTimer::start(METRIC_PHASE_WARMUP);
                    core.resume_warmup().map_err(sim)?;
                    warmup_timer.stop();
                    phase.set(SnapshotPhase::Measure);
                    let measure_timer = ScopedTimer::start(METRIC_PHASE_MEASURE);
                    let stats = core.run(spec.insts).map_err(sim)?;
                    let secs = measure_timer.stop();
                    Ok(finish(&mut core, stats, secs))
                }
                SnapshotPhase::Measure => {
                    phase.set(SnapshotPhase::Measure);
                    let measure_timer = ScopedTimer::start(METRIC_PHASE_MEASURE);
                    let stats = core.resume_run().map_err(sim)?;
                    let secs = measure_timer.stop();
                    Ok(finish(&mut core, stats, secs))
                }
            }
        }
    }
}

/// Runs many experiments across `threads` worker threads (at least one)
/// and returns one result per spec, in input order. Each run is
/// independent and deterministic, so the thread count cannot change any
/// result.
///
/// Every spec runs once, under `catch_unwind`: a panicking spec becomes
/// [`SimError::Panic`] in its own slot and never disturbs its siblings.
/// There is no in-process retry — a deterministic simulator repeats the
/// same panic — and no resume: crash tolerance across process deaths is
/// the campaign controller's (`mlpwin-serve`). With telemetry on, a
/// progress line goes to stderr every epoch of completions.
pub fn run_matrix(specs: &[RunSpec], threads: usize) -> Vec<Result<RunResult, SimError>> {
    let slots: Vec<Mutex<Option<Result<RunResult, SimError>>>> =
        specs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // The line's counts are this matrix's own: (progress, settled, failed).
    let progress =
        metrics::telemetry_enabled().then(|| Mutex::new((Progress::new(specs.len()), 0, 0)));
    let started = Instant::now();
    std::thread::scope(|scope| {
        let (slots, next, progress) = (&slots, &next, &progress);
        for worker in 0..threads.max(1).min(specs.len()) {
            scope.spawn(move || {
                let worker_started = Instant::now();
                let mut worker_insts: u64 = 0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(spec) = specs.get(i) else { break };
                    let outcome =
                        catch_unwind(AssertUnwindSafe(|| run(spec))).unwrap_or_else(|payload| {
                            Err(SimError::Panic {
                                message: panic_message(payload),
                            })
                        });
                    let (insts, cycles, skipped) = outcome.as_ref().map_or((0, 0, 0), |r| {
                        (
                            r.stats.committed_insts,
                            r.stats.cycles,
                            r.engine.skipped_cycles,
                        )
                    });
                    let settled = if outcome.is_ok() {
                        METRIC_SPECS_COMPLETED
                    } else {
                        METRIC_SPECS_FAILED
                    };
                    metrics::counter_add(settled, 1);
                    if metrics::telemetry_enabled() {
                        worker_insts += insts;
                        let elapsed = worker_started.elapsed().as_secs_f64();
                        if elapsed > 0.0 {
                            metrics::gauge_set(
                                metrics::labeled(
                                    "mlpwin_worker_mips",
                                    &[("worker", &worker.to_string())],
                                ),
                                worker_insts as f64 / 1e6 / elapsed,
                            );
                        }
                    }
                    if let Some(progress) = progress {
                        let (progress, settled, failed) =
                            &mut *progress.lock().expect("progress poisoned");
                        *settled += 1;
                        *failed += usize::from(outcome.is_err());
                        progress.add_work(insts, cycles, skipped);
                        let now = started.elapsed().as_secs_f64();
                        if progress.settle(now, *settled) {
                            eprintln!("{}", progress.line(now, *settled, *failed, 0));
                        }
                    }
                    *slots[i].lock().expect("slot poisoned") = Some(outcome);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot poisoned")
                .expect("every spec is claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(profile: &str, model: SimModel) -> RunSpec {
        RunSpec::new(profile, model).with_budget(3_000, 3_000)
    }

    #[test]
    fn run_produces_consistent_result() {
        let r = run(&quick("gcc", SimModel::Base)).expect("healthy run");
        assert!(r.stats.committed_insts >= 3_000);
        assert_eq!(r.category, Category::ComputeIntensive);
        assert!(r.l1_accesses > 0);
        assert!(r.avg_load_latency > 0.0);
        let c = r.run_counters().expect("non-empty ladder");
        assert_eq!(c.cycles, r.stats.cycles);
        assert_eq!(c.level_cycles.len(), 1);
    }

    #[test]
    fn matrix_preserves_order_and_matches_serial_runs() {
        let specs = vec![
            quick("gcc", SimModel::Base),
            quick("milc", SimModel::Base),
            quick("gcc", SimModel::Dynamic),
        ];
        let parallel = run_matrix(&specs, 3);
        assert_eq!(parallel.len(), 3);
        for (spec, outcome) in specs.iter().zip(&parallel) {
            let result = outcome.as_ref().expect("healthy spec");
            assert_eq!(&result.spec, spec);
            let serial = run(spec).expect("healthy run");
            assert_eq!(serial.stats, result.stats, "{spec:?} must be deterministic");
        }
    }

    #[test]
    fn unknown_profile_is_a_typed_error_with_a_suggestion() {
        let err = run(&quick("libqantum", SimModel::Base)).expect_err("typo");
        match &err {
            SimError::UnknownProfile(e) => {
                assert_eq!(e.name, "libqantum");
                assert_eq!(e.suggestion, Some("libquantum"));
            }
            other => panic!("expected UnknownProfile, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("did you mean `libquantum`?"), "{msg}");
    }

    #[test]
    fn dynamic_run_reports_full_ladder() {
        let r = run(&quick("libquantum", SimModel::Dynamic)).expect("healthy run");
        assert_eq!(r.levels.len(), 3);
        assert_eq!(r.run_counters().expect("ladder").provisioned.rob, 512);
    }

    #[test]
    fn empty_ladder_counters_are_none_not_a_panic() {
        let mut r = run(&quick("gcc", SimModel::Base)).expect("healthy run");
        r.levels.clear();
        assert!(r.run_counters().is_none());
    }

    #[test]
    fn threads_from_env_is_positive() {
        assert!(RunSpec::threads_from_env() >= 1);
    }

    #[test]
    fn zero_interval_epoch_is_a_typed_config_error() {
        use mlpwin_ooo::ConfigError;
        let err = run(&quick("gcc", SimModel::Base).with_intervals(0))
            .expect_err("a zero-cycle sampling epoch is degenerate");
        match err {
            SimError::Config(ConfigError::ZeroIntervalEpoch) => {}
            other => panic!("expected Config(ZeroIntervalEpoch), got {other:?}"),
        }
    }

    fn snapshot_files(dir: &std::path::Path) -> Vec<String> {
        std::fs::read_dir(dir)
            .map(|entries| {
                entries
                    .filter_map(|e| e.ok())
                    .map(|e| e.file_name().to_string_lossy().into_owned())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The run must not discard its store while the writer still holds
    /// images: held on its first image, the writer finishes only after
    /// the simulation has, and the finished run still leaves no file.
    #[test]
    fn finished_run_leaves_no_snapshot_even_when_the_writer_lags() {
        use crate::snapshot::SAVE_GATE;
        use std::sync::{mpsc, Arc};
        let dir = std::env::temp_dir().join(format!("mlpwin-writer-held-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        // One image, two thirds of the way through the run: while the
        // writer holds it, the simulation runs on to its end.
        let spec = quick("gcc", SimModel::Base).with_budget(0, 3_000);
        let reference = run(&spec).expect("reference run");
        let policy = SnapshotPolicy::in_dir(&dir).every(reference.stats.cycles * 2 / 3);
        let (held, holds) = mpsc::channel::<u64>();
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(released);
        std::thread::scope(|scope| {
            let running = scope.spawn(|| {
                SAVE_GATE.with(|gate| {
                    *gate.borrow_mut() = Some(Arc::new(move |cycle| {
                        held.send(cycle).ok();
                        released.lock().expect("gate lock").recv().ok();
                    }));
                });
                run_recoverable(&spec, &policy)
            });
            holds.recv().expect("the writer takes the first image");
            std::thread::sleep(std::time::Duration::from_millis(200));
            assert!(
                !running.is_finished(),
                "the run must wait for its writer before returning"
            );
            drop(release);
            let result = running.join().expect("no panic").expect("healthy run");
            assert_eq!(result, reference);
        });
        assert_eq!(holds.try_iter().count(), 0, "exactly one image was offered");
        assert_eq!(snapshot_files(&dir), Vec::<String>::new());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A save that cannot happen (the snapshot directory's parent is a
    /// file) costs only the recovery point: the run warns and completes
    /// bit-identically.
    #[test]
    fn failing_snapshot_saves_warn_and_the_run_completes_identically() {
        let dir = std::env::temp_dir().join(format!("mlpwin-writer-fail-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mkdir");
        let blocker = dir.join("not-a-dir");
        std::fs::write(&blocker, b"").expect("write blocker");
        let spec = quick("mcf", SimModel::Dynamic);
        let policy = SnapshotPolicy::in_dir(blocker.join("snaps")).every(500);
        let result = run_recoverable(&spec, &policy).expect("saves failing is not fatal");
        assert_eq!(result, run(&spec).expect("reference run"));
        assert_eq!(snapshot_files(&dir), vec!["not-a-dir".to_string()]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
