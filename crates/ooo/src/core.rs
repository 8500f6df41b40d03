//! The out-of-order pipeline.
//!
//! One [`Core::step`] simulates one clock cycle; stages run back-to-front
//! (writeback → commit → resize → issue → dispatch → fetch) so that
//! same-cycle hand-offs resolve like hardware's.
//!
//! The reorder buffer is the spine: a `Rob` ring in allocation order
//! whose entries fuse ROB, issue-queue and LSQ state. Dynamic sequence
//! numbers are assigned at dispatch, so they are contiguous within the
//! ROB: `dyn_seq - head` ranks an entry and `dyn_seq mod N` is its slot.
//!
//! The hot path is allocation-free: ROB slots are recycled in place
//! (dispatch re-initializes the tail slot, retire reads the head slot
//! where it sits), the ready set is a
//! packed bitmap over ROB slots ([`ReadyRing`]) walked in place by the
//! select loop, and blocked loads rotate through a pre-sorted deque.
//! When the pipeline is provably inert — dispatch blocked, nothing
//! ready, commit frozen, front end quiescent, policy quiet — the
//! stall-cycle fast-forward jumps `now` to the next event and
//! bulk-charges the skipped cycles to the same CPI bucket they would
//! have accrued one at a time (`DESIGN.md` §10).

use crate::config::{ConfigError, CoreConfig};
use crate::error::{PipelineError, StallSnapshot};
use crate::events::{EngineCounters, EventQueue, WakeRing, WakeSource};
use crate::frontend::{FetchedInst, FrontEnd};
use crate::fu::FuPool;
use crate::lsq::{LoadCheck, Lsq};
use crate::policy::WindowPolicy;
use crate::ready::ReadyRing;
use crate::rename::RenameMap;
use crate::rob::Rob;
use crate::runahead::{CauseStatusTable, RaLookup, RunaheadCache};
use crate::stats::{CoreStats, CpiBucket, IntervalSample, CPI_BUCKETS};
#[cfg(feature = "trace")]
use crate::trace::{TraceEventKind, Tracer};
use crate::types::{DynInst, DynSeq, MemState};
use mlpwin_branch::BranchPredictor;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Addr, Cycle, OpClass, SeqNum};
use mlpwin_memsys::{AccessKind, MemSystem, PathKind};
use mlpwin_workloads::Workload;
use std::collections::VecDeque;
use std::time::Instant;

/// Why dispatch allocated nothing this cycle — the raw observation the
/// CPI-stack accounting pass refines into a [`CpiBucket`]. The dispatch
/// stage checks these conditions in a fixed priority order, so at most
/// one blocks any given cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DispatchBlock {
    Transition,
    ShrinkWait,
    RobFull,
    IqFull,
    LsqFull,
    FetchEmpty,
}

impl DispatchBlock {
    fn tag(self) -> u8 {
        match self {
            DispatchBlock::Transition => 0,
            DispatchBlock::ShrinkWait => 1,
            DispatchBlock::RobFull => 2,
            DispatchBlock::IqFull => 3,
            DispatchBlock::LsqFull => 4,
            DispatchBlock::FetchEmpty => 5,
        }
    }

    fn from_tag(r: &mut SnapReader<'_>) -> Result<DispatchBlock, SnapError> {
        let offset = r.offset();
        let tag = r.get_u8()?;
        match tag {
            0 => Ok(DispatchBlock::Transition),
            1 => Ok(DispatchBlock::ShrinkWait),
            2 => Ok(DispatchBlock::RobFull),
            3 => Ok(DispatchBlock::IqFull),
            4 => Ok(DispatchBlock::LsqFull),
            5 => Ok(DispatchBlock::FetchEmpty),
            tag => Err(SnapError::BadTag {
                offset,
                tag,
                what: "dispatch block",
            }),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Episode {
    resume_seq: SeqNum,
    end_at: Cycle,
    trigger_pc: Addr,
    l2_misses: u32,
}

/// Zeroed statistics shaped for `config`'s level ladder.
fn fresh_stats(config: &CoreConfig) -> CoreStats {
    CoreStats {
        level_cycles: vec![0; config.levels.len()],
        cpi_stack: vec![[0; CPI_BUCKETS]; config.levels.len()],
        ..CoreStats::default()
    }
}

/// A periodic snapshot consumer: called with the current cycle and the
/// serialized core image at every snapshot-cadence point. The image is
/// handed over by value, so a sink may move it to another thread
/// without copying.
pub type SnapshotSink = Box<dyn FnMut(Cycle, Vec<u8>)>;

/// The simulated processor: front end, window resources, execution
/// engine, memory hierarchy, and the window-resizing policy.
pub struct Core<W> {
    cfg: CoreConfig,
    mem: MemSystem,
    bp: BranchPredictor,
    front: FrontEnd<W>,
    policy: Box<dyn WindowPolicy>,

    now: Cycle,
    level: usize,
    next_dyn: DynSeq,
    rob: Rob,
    iq_occ: usize,
    lsq: Lsq,
    rename: RenameMap,
    fu: FuPool,

    /// (ready_time, seq) operand-ready wakeups. The top of `issue`
    /// drains the ones due that cycle — one per-cycle bucket, plus any
    /// far wakeup the ring's heap holds — and promotes them; its
    /// `next_time` doubles as the fast-forward's operand-wakeup bound.
    wakeups: WakeRing,
    /// Instructions ready to issue now; the select loop walks the ring
    /// in place, oldest first.
    ready: ReadyRing,
    /// Loads waiting behind an un-issued overlapping store, kept sorted
    /// by age (oldest at the front).
    blocked_loads: VecDeque<DynSeq>,
    /// (complete_at, seq) completion events of branches — the writeback
    /// stage's queue, since resolving a branch is its only work. Every
    /// other instruction has finished once `complete_at <= now`, which
    /// only the ROB head's commit ever asks.
    completions: EventQueue,

    alloc_stall_until: Cycle,
    shrink_wait: bool,
    l2_miss_events: u32,

    // Runahead.
    ra_cache: Option<RunaheadCache>,
    cst: Option<CauseStatusTable>,
    episode: Option<Episode>,
    arch_inv: [bool; 64],
    last_suppressed: Option<DynSeq>,

    // Observability.
    /// What dispatch did this cycle (instructions allocated, or the
    /// first blocking condition) — consumed by the accounting pass.
    cycle_dispatched: usize,
    cycle_block: Option<DispatchBlock>,
    /// No issue-side event this cycle could change a blocked load's
    /// outcome next cycle (no store executed, no port-starved retry) —
    /// part of the fast-forward legality check.
    issue_quiesced: bool,
    /// Bucket the accounting pass charged the cycle that just ran; the
    /// fast-forward bulk-charges skipped cycles to the same bucket.
    last_bucket: CpiBucket,
    /// Absolute deadline of the current `run`/`run_warmup` call
    /// (`Cycle::MAX` when unlimited). The fast-forward never skips past
    /// it, so `DeadlineExceeded` fires on the same cycle either way.
    deadline_at: Cycle,
    /// `stats.committed_insts` threshold at which the current
    /// `run`/`run_warmup` call stops. Once reached, the driver loop
    /// exits after the current step, so the fast-forward must not tack
    /// a skip onto that final step: a single-stepped run would never
    /// execute those cycles, and the reported totals would diverge.
    commit_stop: u64,
    /// The level the policy asked for at the last resize call. A
    /// pending shrink (`last_target < level`) re-fires every cycle, so
    /// the fast-forward may only skip it while the doomed regions stay
    /// occupied.
    last_target: usize,
    /// Whether the last resize call changed the level. A quiet policy's
    /// answer is only guaranteed constant for a constant
    /// `current_level` argument, so the fast-forward sits out the cycle
    /// right after a transition (back-to-back shrinks chain this way).
    level_changed: bool,
    /// Cycles elided by the stall fast-forward — a host-performance
    /// diagnostic, deliberately kept outside [`CoreStats`] so A/B runs
    /// with the fast-forward on and off stay bit-identical.
    ff_cycles: u64,
    /// Cycles executed as real pipeline steps — counted directly rather
    /// than derived from `now` because [`restore`](Core::restore)
    /// rewinds the clock while this host-side counter (like
    /// `ff_cycles`) keeps measuring what *this* core object executed.
    stepped_cycles: u64,
    /// Coasts ended per [`WakeSource`] — host-side telemetry with the
    /// same outside-the-stats contract as `ff_cycles`.
    wake_hist: [u64; WakeSource::COUNT],
    /// Committed-instruction count at the last interval boundary.
    interval_last_insts: u64,
    #[cfg(feature = "trace")]
    tracer: Option<Tracer>,

    stats: CoreStats,
    last_commit_cycle: Cycle,
    /// Committed-path instructions over the core's whole lifetime —
    /// unlike `stats.committed_insts`, never cleared by
    /// [`reset_counters`](Core::reset_counters), so fault-injection
    /// triggers count warm-up and measurement alike.
    total_committed: u64,

    /// Receiver for the periodic snapshots taken every
    /// `snapshot_cycles` measured cycles; the driver loop calls it with
    /// the current cycle and the encoded image. Not part of the
    /// simulated state: presence or absence never changes what the
    /// pipeline does.
    snapshot_sink: Option<SnapshotSink>,
    /// Host nanoseconds spent encoding periodic snapshots and running
    /// the sink on them. Host-side only, like `ff_cycles`.
    snapshot_ns: u64,
}

impl<W: Workload> Core<W> {
    /// Builds a core over `workload` with the given window policy.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation; use
    /// [`try_new`](Core::try_new) to handle the error instead.
    pub fn new(config: CoreConfig, workload: W, policy: Box<dyn WindowPolicy>) -> Core<W> {
        match Core::try_new(config, workload, policy) {
            Ok(core) => core,
            Err(e) => panic!("invalid core configuration: {e}"),
        }
    }

    /// Builds a core over `workload`, rejecting a malformed
    /// configuration (empty or non-monotone level ladder, zero-capacity
    /// resources, ...) with a typed [`ConfigError`] before any state is
    /// allocated.
    pub fn try_new(
        config: CoreConfig,
        workload: W,
        policy: Box<dyn WindowPolicy>,
    ) -> Result<Core<W>, ConfigError> {
        config.validate()?;
        let mem = MemSystem::new(config.memory.clone());
        let bp = BranchPredictor::new(config.predictor.clone());
        let front = FrontEnd::new(
            workload,
            config.wrongpath_seed,
            config.fetch_width,
            config.front_depth,
            config.fetch_queue,
        );
        let (ra_cache, cst) = match &config.runahead {
            Some(opts) => (
                Some(RunaheadCache::new(
                    opts.cache_bytes,
                    opts.cache_ways,
                    opts.cache_line,
                )),
                opts.use_cause_status_table
                    .then(|| CauseStatusTable::new(opts.cst_entries)),
            ),
            None => (None, None),
        };
        let stats = fresh_stats(&config);
        #[cfg(feature = "trace")]
        let tracer = config.trace.map(Tracer::new);
        // Size every hot-path container to the largest level up front:
        // the ROB ring then never reallocates, even across enlarges.
        let max_rob = config.max_level_spec().rob;
        Ok(Core {
            fu: FuPool::new(config.fu_counts),
            cfg: config,
            mem,
            bp,
            front,
            policy,
            now: 0,
            level: 0,
            next_dyn: 1,
            rob: Rob::with_capacity(max_rob),
            iq_occ: 0,
            lsq: Lsq::new(),
            rename: RenameMap::new(),
            wakeups: WakeRing::new(),
            ready: ReadyRing::with_capacity(max_rob),
            blocked_loads: VecDeque::new(),
            completions: EventQueue::new(),
            alloc_stall_until: 0,
            shrink_wait: false,
            l2_miss_events: 0,
            ra_cache,
            cst,
            episode: None,
            arch_inv: [false; 64],
            last_suppressed: None,
            cycle_dispatched: 0,
            cycle_block: None,
            issue_quiesced: true,
            last_bucket: CpiBucket::Base,
            deadline_at: Cycle::MAX,
            commit_stop: u64::MAX,
            last_target: 0,
            level_changed: false,
            ff_cycles: 0,
            stepped_cycles: 0,
            wake_hist: [0; WakeSource::COUNT],
            interval_last_insts: 0,
            #[cfg(feature = "trace")]
            tracer,
            stats,
            last_commit_cycle: 0,
            total_committed: 0,
            snapshot_sink: None,
            snapshot_ns: 0,
        })
    }

    /// Runs until `n_insts` committed-path instructions retire, then
    /// finalizes memory-side accounting and returns the statistics.
    ///
    /// # Errors
    ///
    /// Returns [`PipelineError::Stall`] when no instruction commits for
    /// `watchdog_cycles` (a livelocked pipeline — a modelling bug or an
    /// injected fault), and [`PipelineError::DeadlineExceeded`] when the
    /// call consumes more than `deadline_cycles` wall cycles while still
    /// making progress. Both carry a [`StallSnapshot`] of the machine
    /// state for post-mortem triage.
    pub fn run(&mut self, n_insts: u64) -> Result<CoreStats, PipelineError> {
        self.arm_run(n_insts);
        self.drive()?;
        self.mem.finalize();
        Ok(self.stats.clone())
    }

    /// Arms the commit target and deadline of a measurement run without
    /// stepping: [`run`](Core::run) is `arm_run` + drive + finalize.
    ///
    /// The interval-parallel sweep uses the split form so it can
    /// snapshot the *armed* pre-measurement state as interval 0's start
    /// boundary — a worker restoring that image then replays the exact
    /// run, commit target and deadline included, without re-arming.
    pub fn arm_run(&mut self, n_insts: u64) {
        self.arm_deadline(self.now);
        self.commit_stop = n_insts;
    }

    /// Drives an armed (or snapshot-restored) measurement run until the
    /// measured-cycle counter reaches `until`, or the commit target
    /// lands first. Returns `true` when the run completed (commit
    /// target reached) and `false` when it paused at the cycle bound;
    /// unlike [`run`](Core::run) nothing is finalized or cloned — the
    /// caller reads [`stats`](Core::stats) at each pause point.
    ///
    /// `until` must be a cadence point the fast-forward pins
    /// ([`CoreConfig::snapshot_cycles`] or
    /// [`CoreConfig::interval_cycles`] multiples), or the fast-forward
    /// may legitimately skip straight over it, leaving `stats.cycles`
    /// past `until` — callers stitching intervals must verify
    /// `stats.cycles == until` on a `false` return and treat an
    /// overshoot as a hard error rather than difference the mismatched
    /// boundary (see `StatsDelta`).
    ///
    /// # Errors
    ///
    /// Same watchdog/deadline contract as [`run`](Core::run).
    pub fn run_to_cycle(&mut self, until: Cycle) -> Result<bool, PipelineError> {
        while self.stats.committed_insts < self.commit_stop {
            if self.stats.cycles >= until {
                return Ok(false);
            }
            self.step();
            self.maybe_snapshot();
            self.check_progress()?;
        }
        Ok(true)
    }

    /// Runs `n_insts` committed instructions as warm-up, then clears all
    /// counters (pipeline, memory, predictor) while keeping every
    /// microarchitectural table warm — the equivalent of the paper's
    /// fast-forward before measurement.
    ///
    /// # Errors
    ///
    /// Same watchdog/deadline contract as [`run`](Core::run); counters
    /// are left un-cleared when the warm-up fails, so the snapshot and
    /// any later diagnostics still see the stalled state.
    pub fn run_warmup(&mut self, n_insts: u64) -> Result<(), PipelineError> {
        self.arm_deadline(self.now);
        self.commit_stop = self.stats.committed_insts + n_insts;
        self.drive()?;
        self.reset_counters();
        Ok(())
    }

    /// Continues an interrupted measurement run restored via
    /// [`restore`](Core::restore): same contract as [`run`](Core::run),
    /// but the commit target and the deadline come from the snapshot
    /// instead of being re-armed, so the resumed run stops — and times
    /// out — on exactly the cycle the uninterrupted run would have.
    ///
    /// # Errors
    ///
    /// Same watchdog/deadline contract as [`run`](Core::run).
    pub fn resume_run(&mut self) -> Result<CoreStats, PipelineError> {
        self.drive()?;
        self.mem.finalize();
        Ok(self.stats.clone())
    }

    /// Continues an interrupted warm-up restored via
    /// [`restore`](Core::restore); counterpart of
    /// [`resume_run`](Core::resume_run) for the
    /// [`run_warmup`](Core::run_warmup) phase.
    ///
    /// # Errors
    ///
    /// Same watchdog/deadline contract as [`run`](Core::run).
    pub fn resume_warmup(&mut self) -> Result<(), PipelineError> {
        self.drive()?;
        self.reset_counters();
        Ok(())
    }

    /// The shared driver loop: steps until the armed commit target is
    /// reached, taking periodic snapshots along the way. The snapshot is
    /// taken *before* the progress check so that a run dying to the
    /// watchdog or the deadline still leaves its latest image behind.
    fn drive(&mut self) -> Result<(), PipelineError> {
        while self.stats.committed_insts < self.commit_stop {
            self.step();
            self.maybe_snapshot();
            self.check_progress()?;
        }
        Ok(())
    }

    /// Installs the receiver for periodic snapshots (see
    /// [`CoreConfig::snapshot_cycles`]); replaces any previous sink.
    /// The sink is host-side plumbing, not simulated state: installing
    /// one never changes the simulated outcome.
    pub fn set_snapshot_sink(&mut self, sink: SnapshotSink) {
        self.snapshot_sink = Some(sink);
    }

    /// Hands the current encoded image to the sink when the measured
    /// cycle counter sits on a `snapshot_cycles` boundary. The cadence
    /// is keyed on `stats.cycles` (not `now`) so warm-up resets do not
    /// shift the measurement-phase snapshot points.
    fn maybe_snapshot(&mut self) {
        let Some(cadence) = self.cfg.snapshot_cycles else {
            return;
        };
        if self.snapshot_sink.is_none() || !self.stats.cycles.is_multiple_of(cadence) {
            return;
        }
        self.offer_snapshot();
    }

    /// Encodes the current image and runs the sink on it, timing both.
    /// Out of line so the per-step cadence check stays small.
    #[cold]
    #[inline(never)]
    fn offer_snapshot(&mut self) {
        let started = Instant::now();
        let bytes = self.snapshot();
        let now = self.now;
        if let Some(mut sink) = self.snapshot_sink.take() {
            sink(now, bytes);
            self.snapshot_sink = Some(sink);
        }
        self.snapshot_ns += started.elapsed().as_nanos() as u64;
    }

    /// Converts the per-call relative deadline into the absolute cycle
    /// the fast-forward must not skip past.
    fn arm_deadline(&mut self, start: Cycle) {
        self.deadline_at = match self.cfg.deadline_cycles {
            Some(limit) => start.saturating_add(limit),
            None => Cycle::MAX,
        };
    }

    /// The watchdog: raises a typed error when the pipeline stops
    /// committing or overruns the armed absolute deadline.
    fn check_progress(&self) -> Result<(), PipelineError> {
        let stalled_for = self.now - self.last_commit_cycle;
        if stalled_for >= self.cfg.watchdog_cycles {
            return Err(PipelineError::Stall {
                budget: self.cfg.watchdog_cycles,
                snapshot: self.stall_snapshot(stalled_for),
            });
        }
        if self.now >= self.deadline_at {
            return Err(PipelineError::DeadlineExceeded {
                limit: self.cfg.deadline_cycles.unwrap_or(Cycle::MAX),
                snapshot: self.stall_snapshot(stalled_for),
            });
        }
        Ok(())
    }

    /// Captures the diagnostic state the watchdog reports.
    fn stall_snapshot(&self, stalled_for: u64) -> StallSnapshot {
        StallSnapshot {
            cycle: self.now,
            committed_insts: self.stats.committed_insts,
            stalled_for,
            level: self.level,
            rob_len: self.rob.len(),
            iq_occ: self.iq_occ,
            lsq_occ: self.lsq.occupancy(),
            outstanding_misses: self.mem.outstanding_misses(),
            in_runahead: self.episode.is_some(),
            rob_head: self
                .rob
                .front()
                .map(|d| format!("{:?}", (&d.inst, d.issued, d.complete_at <= self.now))),
        }
    }

    /// Clears statistics without touching microarchitectural state.
    pub fn reset_counters(&mut self) {
        self.stats = fresh_stats(&self.cfg);
        self.mem.reset_stats();
        self.bp.reset_stats();
        self.last_commit_cycle = self.now;
        self.interval_last_insts = 0;
        #[cfg(feature = "trace")]
        {
            // The trace restarts with the measurement window, like every
            // other counter: warm-up events are observability noise.
            self.tracer = self.cfg.trace.map(Tracer::new);
        }
    }

    /// Simulates one clock cycle.
    pub fn step(&mut self) {
        self.now += 1;
        self.stepped_cycles += 1;
        let now = self.now;
        self.fu.begin_cycle(now);
        if self.episode.is_some_and(|e| now >= e.end_at) {
            self.exit_runahead(now);
        }
        self.writeback(now);
        self.commit(now);
        self.resize(now);
        self.issue(now);
        self.dispatch(now);
        self.front.fetch_cycle(now, &mut self.bp, &mut self.mem);

        self.stats.cycles += 1;
        self.stats.level_cycles[self.level] += 1;
        if self.episode.is_some() {
            self.stats.runahead_cycles += 1;
        }
        self.account_cycle(now);
        self.collect_interval();
        self.stall_fast_forward();
    }

    // ------------------------------------------------- stall fast-forward

    /// Whether the commit stage is provably a no-op for every cycle
    /// until the next pipeline event (writeback, promoted operand,
    /// episode end, ...) — one leg of the fast-forward legality check.
    fn commit_frozen(&self) -> bool {
        let Some(head) = self.rob.front() else {
            return true; // nothing to commit
        };
        if head.complete_at <= self.now {
            return false; // would retire next cycle
        }
        let head_blocked_l2_load = head.inst.op == OpClass::Load && head.issued && head.l2_miss;
        if !head_blocked_l2_load {
            return true; // an incomplete non-trigger head just stalls
        }
        if self.episode.is_some() {
            return false; // runahead would pseudo-retire it next cycle
        }
        if self.cfg.runahead.is_none() || head.wrong_path {
            return true; // no entry mechanism: a plain memory stall
        }
        // An un-entered runahead trigger is only inert once suppression
        // has latched for this head: the guarded stat bump has already
        // happened, and (the remaining-latency test being monotone, the
        // cause-status table frozen between episodes) entry is ruled out
        // until the head completes.
        self.last_suppressed == Some(head.dyn_seq)
    }

    /// The stall-cycle fast-forward. When the cycle that just ran proves
    /// the machine inert — dispatch blocked, nothing ready or issuable,
    /// commit frozen, front end quiescent, policy quiet, no fresh L2
    /// miss for the policy to see — every cycle up to the next event is
    /// an exact replay of it, so `now` jumps there directly and the
    /// skipped cycles are charged in bulk to the same counters single
    /// stepping would have charged.
    ///
    /// The next-event bound comes from [`next_wake`](Core::next_wake) —
    /// the typed plan over every wake-up source: the wakeup ring's and
    /// the completion queue's next events, the ROB head's completion, the
    /// runahead episode end, the allocation stall's
    /// expiry, fetch's own resume time, the policy's quiet horizon, the
    /// interval/snapshot epoch boundaries, the watchdog / deadline trip
    /// points (so errors fire on the identical cycle). The event cycle
    /// itself is always executed as a real step.
    fn stall_fast_forward(&mut self) {
        if !self.cfg.fast_forward
            || self.cycle_dispatched > 0
            || self.stats.committed_insts >= self.commit_stop
            || self.l2_miss_events != 0
            || !self.ready.is_empty()
            || !(self.blocked_loads.is_empty() || self.issue_quiesced)
            || !self.commit_frozen()
        {
            return;
        }
        let Some(block) = self.cycle_block else {
            return;
        };
        // The resize stage is only inert if this cycle's call was a
        // no-op (a transition chains: the new `current_level` argument
        // voids the policy's quiet promise) and no pending shrink could
        // complete (with occupancies frozen for the whole window, the
        // vacancy check's answer now is its answer throughout).
        if self.level_changed {
            return;
        }
        if self.last_target < self.level {
            let spec = self.cfg.levels[self.level - 1];
            if self.rob.len() <= spec.rob
                && self.iq_occ <= spec.iq
                && self.lsq.occupancy() <= spec.lsq
            {
                return; // the shrink fires next cycle
            }
        }
        let now = self.now;
        let Some(front_quiet) = self.front.quiescent_until(now) else {
            return; // fetch could make progress: never skip
        };
        let policy_quiet = self.policy.quiet_until(now, self.level);
        if policy_quiet <= now + 1 {
            return; // policy did not opt in (or changes next cycle)
        }

        if let Some(cadence) = self.cfg.snapshot_cycles {
            // Snapshot points must land on step boundaries, keyed on the
            // config alone — not on whether a sink is installed — so a
            // snapshotting run and a plain run of the same spec take
            // identical steps. If this very step landed on a cadence
            // point, its snapshot is still pending in `maybe_snapshot`
            // (which runs after the step returns): coasting onward now
            // would leave the boundary unobservable, losing the snapshot
            // and breaking interval-paused execution (`run_to_cycle`).
            // Results are unaffected either way — skips never change
            // what the machine computes — so declining costs only the
            // one coast opportunity.
            if self.stats.cycles.is_multiple_of(cadence) {
                return;
            }
        }
        let (next, source) = self.next_wake(now, block, front_quiet, policy_quiet);
        if next <= now + 1 {
            return;
        }
        self.wake_hist[source.index()] += 1;

        let skipped = next - now - 1;
        self.now += skipped;
        self.ff_cycles += skipped;
        self.stats.cycles += skipped;
        self.stats.level_cycles[self.level] += skipped;
        if self.episode.is_some() {
            self.stats.runahead_cycles += skipped;
        }
        self.stats.cpi_stack[self.level][self.last_bucket as usize] += skipped;
        match block {
            DispatchBlock::Transition => self.stats.stall_transition += skipped,
            DispatchBlock::ShrinkWait => self.stats.stall_shrink_wait += skipped,
            DispatchBlock::RobFull => self.stats.stall_rob_full += skipped,
            DispatchBlock::IqFull => self.stats.stall_iq_full += skipped,
            DispatchBlock::LsqFull => self.stats.stall_lsq_full += skipped,
            DispatchBlock::FetchEmpty => self.stats.stall_fetch_empty += skipped,
        }
    }

    /// The unified wake plan: the earliest future cycle at which any
    /// wake-up source could change the machine's course (or an observer
    /// could next look), typed by which source binds. The stall
    /// fast-forward is its one caller and reads its skip bound here
    /// instead of re-scanning the state ad hoc.
    ///
    /// The per-instruction sources are the wakeup ring's and the
    /// completion queue's next events and the ROB head's completion
    /// time; the rest are scalar horizons folded in directly (posting
    /// them as queue entries would mean re-posting every time one
    /// moves, for no gain — the fold *is* the pop). The memory system adds no bound of its own:
    /// a fill an instruction waits on surfaces through the sources
    /// above, and the hierarchy resolves contention by timestamp when
    /// the next access arrives, so a fill nothing waits on (a prefetch,
    /// a wrong-path orphan) cannot change what the core does.
    fn next_wake(
        &self,
        now: Cycle,
        block: DispatchBlock,
        front_quiet: Cycle,
        policy_quiet: Cycle,
    ) -> (Cycle, WakeSource) {
        let mut next = front_quiet;
        let mut source = WakeSource::FrontEnd;
        let mut fold = |t: Cycle, s: WakeSource| {
            if t < next {
                next = t;
                source = s;
            }
        };
        fold(policy_quiet, WakeSource::PolicyQuiet);
        fold(
            self.last_commit_cycle + self.cfg.watchdog_cycles,
            WakeSource::Watchdog,
        );
        fold(self.deadline_at, WakeSource::Deadline);
        if let Some(t) = self.wakeups.next_time() {
            fold(t, WakeSource::OperandReady);
        }
        if let Some(t) = self.completions.next_time() {
            fold(t, WakeSource::Completion);
        }
        // Only the head's completion can change what the machine does:
        // commit reads nothing else, and no younger instruction becomes
        // the head without a commit, which takes a real step.
        if let Some(head) = self.rob.front() {
            fold(head.complete_at, WakeSource::Completion);
        }
        if let Some(ep) = &self.episode {
            fold(ep.end_at, WakeSource::EpisodeEnd);
        }
        if self.alloc_stall_until > now {
            // The block kind flips from Transition to whatever is behind
            // it when the stall expires: re-evaluate there.
            fold(self.alloc_stall_until, WakeSource::AllocStall);
        }
        if block == DispatchBlock::FetchEmpty {
            // A queued-but-undecoded head becoming ready, or recovery
            // ending (which re-buckets FetchEmpty cycles), ends the
            // replay.
            if let Some(t) = self.front.head_ready_at() {
                fold(t, WakeSource::FrontEnd);
            }
            let recovery = self.front.recovery_until();
            if recovery > now {
                fold(recovery, WakeSource::FrontEnd);
            }
        }
        if let Some(epoch) = self.cfg.interval_cycles {
            // Interval samples must be taken by a real step at the
            // boundary (stats.cycles and now advance in lockstep).
            fold(
                now + (epoch - self.stats.cycles % epoch),
                WakeSource::IntervalEpoch,
            );
        }
        if let Some(cadence) = self.cfg.snapshot_cycles {
            fold(
                now + (cadence - self.stats.cycles % cadence),
                WakeSource::SnapshotCadence,
            );
        }
        (next, source)
    }

    /// Cycles elided by the stall fast-forward (0 when disabled) — a
    /// host-performance diagnostic, not part of [`CoreStats`].
    pub fn fast_forwarded_cycles(&self) -> u64 {
        self.ff_cycles
    }

    /// Event-engine telemetry: event-queue traffic (heap posts only; the
    /// wakeup ring's per-cycle buckets are not counted) and the
    /// skipped-versus-stepped cycle split over the core's lifetime
    /// (warm-up included). Host-side diagnostics, deliberately outside
    /// [`CoreStats`] and the snapshot image — like `ff_cycles` — so A/B
    /// runs with the fast-forward on and off stay bit-identical in
    /// results.
    pub fn engine_counters(&self) -> EngineCounters {
        EngineCounters {
            events_posted: self.wakeups.posted() + self.completions.posted(),
            events_popped: self.wakeups.popped() + self.completions.popped(),
            skipped_cycles: self.ff_cycles,
            stepped_cycles: self.stepped_cycles,
        }
    }

    /// Host nanoseconds spent on periodic snapshots over the core's
    /// lifetime: the image encode plus the installed sink (for the
    /// recoverable runner, the handoff to its background writer, which
    /// reports the durable save separately). 0 without a sink. A
    /// host-performance diagnostic, outside [`CoreStats`] and the image.
    pub fn snapshot_host_ns(&self) -> u64 {
        self.snapshot_ns
    }

    /// How many coasts each wake-up source ended (indexed by
    /// [`WakeSource::index`]) — host-side telemetry like
    /// [`engine_counters`](Core::engine_counters).
    pub fn wake_histogram(&self) -> &[u64; WakeSource::COUNT] {
        &self.wake_hist
    }

    // ------------------------------------------------------ observability

    /// The CPI-stack accounting pass: charges the cycle that just ran to
    /// exactly one [`CpiBucket`] of the current level's row. One
    /// increment per [`step`](Core::step) makes the conservation
    /// invariant (`Σ cpi_stack == cycles`) structural; this pass only
    /// decides *which* bucket.
    fn account_cycle(&mut self, now: Cycle) {
        let bucket =
            if self.cycle_dispatched > 0 {
                CpiBucket::Base
            } else {
                match self.cycle_block {
                    Some(DispatchBlock::Transition) => CpiBucket::Transition,
                    Some(DispatchBlock::ShrinkWait) => CpiBucket::ShrinkDrain,
                    // A full window resource whose oldest instruction is an
                    // in-flight load is backed up behind the memory system,
                    // whichever capacity happened to fill first.
                    Some(
                        DispatchBlock::RobFull | DispatchBlock::IqFull | DispatchBlock::LsqFull,
                    ) if self.head_blocked_on_memory() => CpiBucket::MemoryStall,
                    Some(DispatchBlock::RobFull) => CpiBucket::RobFull,
                    Some(DispatchBlock::IqFull) => CpiBucket::IqFull,
                    Some(DispatchBlock::LsqFull) => CpiBucket::LsqFull,
                    Some(DispatchBlock::FetchEmpty) if self.front.recovering(now) => {
                        CpiBucket::BranchRecovery
                    }
                    Some(DispatchBlock::FetchEmpty) => CpiBucket::FetchEmpty,
                    // Dispatch always either allocates or names its first
                    // blocker; this arm is unreachable but total.
                    None => CpiBucket::Base,
                }
            };
        self.last_bucket = bucket;
        self.stats.cpi_stack[self.level][bucket as usize] += 1;
    }

    /// Whether the ROB head is an issued, still-incomplete load — the
    /// signature of a window backed up behind the memory system.
    fn head_blocked_on_memory(&self) -> bool {
        self.rob
            .front()
            .is_some_and(|d| d.inst.op == OpClass::Load && d.issued && d.complete_at > self.now)
    }

    /// Appends an [`IntervalSample`] at each epoch boundary of the
    /// measured-cycle clock (so warm-up resets re-align the series).
    fn collect_interval(&mut self) {
        let Some(epoch) = self.cfg.interval_cycles else {
            return;
        };
        if !self.stats.cycles.is_multiple_of(epoch) {
            return;
        }
        let committed = self.stats.committed_insts - self.interval_last_insts;
        self.interval_last_insts = self.stats.committed_insts;
        let sample = IntervalSample {
            end_cycle: self.stats.cycles,
            committed_insts: committed,
            level: self.level as u32,
            rob_occ: self.rob.len() as u32,
            iq_occ: self.iq_occ as u32,
            lsq_occ: self.lsq.occupancy() as u32,
            outstanding_misses: self.mem.outstanding_misses() as u32,
        };
        self.stats.intervals.push(sample);
    }

    /// Records a trace event when tracing is compiled in *and* enabled
    /// at runtime; otherwise free. Kept as a `#[cfg]`-gated method so
    /// call sites stay single lines.
    #[cfg(feature = "trace")]
    fn trace(&mut self, cycle: Cycle, kind: TraceEventKind) {
        if let Some(tracer) = self.tracer.as_mut() {
            tracer.record(cycle, kind);
        }
    }

    /// Offers an LLC miss to the tracer through its sampling divisor,
    /// stamping the current MSHR occupancy.
    #[cfg(feature = "trace")]
    fn trace_llc_miss(&mut self, cycle: Cycle, pc: Addr, addr: Addr) {
        if let Some(tracer) = self.tracer.as_mut() {
            let occ = self.mem.outstanding_misses() as u32;
            tracer.offer_llc_miss(cycle, pc, addr, occ);
        }
    }

    // ---------------------------------------------------------- accessors

    /// Accumulated statistics (live view).
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// The memory hierarchy (for miss histograms, provenance, ...).
    pub fn mem(&self) -> &MemSystem {
        &self.mem
    }

    /// Mutable memory hierarchy access (e.g. to finalize provenance).
    pub fn mem_mut(&mut self) -> &mut MemSystem {
        &mut self.mem
    }

    /// The branch-prediction unit.
    pub fn predictor(&self) -> &BranchPredictor {
        &self.bp
    }

    /// The current resource level (0-based).
    pub fn current_level(&self) -> usize {
        self.level
    }

    /// The current cycle.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// The configuration in effect.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Whether the core is currently in a runahead episode.
    pub fn in_runahead(&self) -> bool {
        self.episode.is_some()
    }

    /// The structured-event tracer, when one is configured. Only exists
    /// in `trace`-feature builds — a default build carries no tracer
    /// state at all.
    #[cfg(feature = "trace")]
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// Current (ROB, IQ, LSQ) occupancy — for invariant checks and
    /// occupancy-triggered analyses.
    pub fn occupancy(&self) -> (usize, usize, usize) {
        (self.rob.len(), self.iq_occ, self.lsq.occupancy())
    }

    // ----------------------------------------------------------- snapshot

    /// Encodes the complete dynamic state — architectural and
    /// microarchitectural — into a flat byte image.
    ///
    /// Captured: the cycle clock, ROB/IQ/LSQ contents, rename map, FU
    /// pools, scheduler event queues, runahead episode and tables, the
    /// front end (including the workload generator's RNG and phase
    /// cursor), branch predictor, memory hierarchy (caches, MSHRs, DRAM
    /// queues), window-policy state, every statistics accumulator, and
    /// the armed deadline/commit-stop of an in-flight `run` call, so a
    /// restored core replays the remaining cycles bit-identically.
    ///
    /// Deliberately *not* captured: the configuration (the restoring
    /// side must rebuild the core from the identical [`CoreConfig`] —
    /// geometry is validated, not transported), the snapshot sink, the
    /// `ff_cycles` host diagnostic, and the `trace`-feature event ring
    /// (observability, not simulated state).
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::with_capacity(4096);
        self.save_state(&mut w);
        w.into_bytes()
    }

    /// Restores the state written by [`snapshot`](Core::snapshot) into a
    /// core freshly built from the identical configuration and workload.
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the bytes are truncated, corrupt, or
    /// encode a core of different geometry. The core's state is
    /// unspecified after an error: discard it and rebuild.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapError> {
        let mut r = SnapReader::new(bytes);
        self.load_state(&mut r)?;
        r.finish()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        w.put_u64(self.now);
        w.put_usize(self.level);
        w.put_u64(self.next_dyn);
        w.put_seq(self.rob.iter(), |w, d| d.encode(w));
        w.put_usize(self.iq_occ);
        self.lsq.save_state(w);
        self.rename.save_state(w);
        self.fu.save_state(w);
        // The wakeups travel as sorted (time, seq) pairs, whether a
        // ring bucket or the ring's heap holds them.
        let pending = self.wakeups.sorted_events();
        w.put_seq(pending.iter(), |w, &(t, s)| {
            w.put_u64(t);
            w.put_u64(s);
        });
        self.ready.save_state(w);
        w.put_seq(self.blocked_loads.iter(), |w, &s| w.put_u64(s));
        let completions = self.completions.sorted_events();
        w.put_seq(completions.iter(), |w, &(t, s)| {
            w.put_u64(t);
            w.put_u64(s);
        });
        w.put_u64(self.alloc_stall_until);
        w.put_bool(self.shrink_wait);
        w.put_u32(self.l2_miss_events);
        w.put_bool(self.ra_cache.is_some());
        if let Some(c) = &self.ra_cache {
            c.save_state(w);
        }
        w.put_bool(self.cst.is_some());
        if let Some(c) = &self.cst {
            c.save_state(w);
        }
        w.put_opt(self.episode.as_ref(), |w, e| {
            w.put_u64(e.resume_seq);
            w.put_u64(e.end_at);
            w.put_u64(e.trigger_pc);
            w.put_u32(e.l2_misses);
        });
        for &b in &self.arch_inv {
            w.put_bool(b);
        }
        w.put_opt_u64(self.last_suppressed);
        w.put_usize(self.cycle_dispatched);
        w.put_opt(self.cycle_block.as_ref(), |w, b| w.put_u8(b.tag()));
        w.put_bool(self.issue_quiesced);
        w.put_u8(self.last_bucket as u8);
        w.put_u64(self.deadline_at);
        w.put_u64(self.commit_stop);
        w.put_usize(self.last_target);
        w.put_bool(self.level_changed);
        w.put_u64(self.interval_last_insts);
        self.stats.save_state(w);
        w.put_u64(self.last_commit_cycle);
        w.put_u64(self.total_committed);
        self.mem.save_state(w);
        self.bp.save_state(w);
        self.front.save_state(w);
        self.policy.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.now = r.get_u64()?;
        self.level = r.get_usize()?;
        if self.level >= self.cfg.levels.len() {
            return Err(SnapError::Mismatch {
                what: "window level ladder",
            });
        }
        self.next_dyn = r.get_u64()?;
        let rob = r.get_seq(DynInst::decode)?;
        if rob.len() > self.cfg.max_level_spec().rob {
            return Err(SnapError::Mismatch {
                what: "ROB occupancy vs capacity",
            });
        }
        // The ring places each entry by its sequence number, so the
        // entries must be consecutive and end right below `next_dyn`.
        let contiguous = rob
            .iter()
            .rev()
            .zip(1u64..)
            .all(|(d, back)| self.next_dyn.checked_sub(back) == Some(d.dyn_seq));
        if !contiguous {
            return Err(SnapError::Mismatch {
                what: "ROB sequence numbers",
            });
        }
        self.rob.clear();
        self.rob.extend(rob);
        self.iq_occ = r.get_usize()?;
        self.lsq.load_state(r)?;
        self.rename.load_state(r)?;
        self.fu.load_state(r)?;
        // Snapshots are taken at step boundaries, where every queued
        // event is strictly in the future — so the restored queues'
        // floors sit at the cycle after the restored clock. An event at
        // or below the clock means a corrupt image. Every wakeup goes to
        // the ring's heap: promotion does not care which holds it.
        let pending = r.get_seq(|r| Ok((r.get_u64()?, r.get_u64()?)))?;
        if !self.wakeups.restore(self.now + 1, &pending) {
            return Err(SnapError::Mismatch {
                what: "pending-ready event versus clock",
            });
        }
        self.ready.load_state(r)?;
        let blocked = r.get_u64_vec()?;
        self.blocked_loads.clear();
        self.blocked_loads.extend(blocked);
        let completions = r.get_seq(|r| Ok((r.get_u64()?, r.get_u64()?)))?;
        if !self.completions.restore(self.now + 1, &completions) {
            return Err(SnapError::Mismatch {
                what: "completion event versus clock",
            });
        }
        self.alloc_stall_until = r.get_u64()?;
        self.shrink_wait = r.get_bool()?;
        self.l2_miss_events = r.get_u32()?;
        let has_ra = r.get_bool()?;
        match (&mut self.ra_cache, has_ra) {
            (Some(c), true) => c.load_state(r)?,
            (None, false) => {}
            _ => {
                return Err(SnapError::Mismatch {
                    what: "runahead-cache presence",
                })
            }
        }
        let has_cst = r.get_bool()?;
        match (&mut self.cst, has_cst) {
            (Some(c), true) => c.load_state(r)?,
            (None, false) => {}
            _ => {
                return Err(SnapError::Mismatch {
                    what: "cause-status-table presence",
                })
            }
        }
        self.episode = r.get_opt(|r| {
            Ok(Episode {
                resume_seq: r.get_u64()?,
                end_at: r.get_u64()?,
                trigger_pc: r.get_u64()?,
                l2_misses: r.get_u32()?,
            })
        })?;
        for b in &mut self.arch_inv {
            *b = r.get_bool()?;
        }
        self.last_suppressed = r.get_opt_u64()?;
        self.cycle_dispatched = r.get_usize()?;
        self.cycle_block = r.get_opt(DispatchBlock::from_tag)?;
        self.issue_quiesced = r.get_bool()?;
        self.last_bucket = CpiBucket::from_tag(r)?;
        self.deadline_at = r.get_u64()?;
        self.commit_stop = r.get_u64()?;
        self.last_target = r.get_usize()?;
        self.level_changed = r.get_bool()?;
        self.interval_last_insts = r.get_u64()?;
        self.stats.load_state(r)?;
        self.last_commit_cycle = r.get_u64()?;
        self.total_committed = r.get_u64()?;
        self.mem.load_state(r)?;
        self.bp.load_state(r)?;
        self.front.load_state(r)?;
        self.policy.load_state(r)?;
        Ok(())
    }

    // ------------------------------------------------------------ helpers

    fn iq_depth(&self) -> u32 {
        self.cfg.levels[self.level].iq_depth
    }

    fn mispredict_penalty(&self) -> u32 {
        self.cfg.mispredict_penalty + self.cfg.levels[self.level].extra_mispredict_penalty
    }

    /// Announces a producer's result time/validity to its waiters. Safe
    /// to call again with an earlier time (runahead INV override).
    fn notify_waiters(&mut self, producer: DynSeq) {
        let Some(p_idx) = self.rob.idx(producer) else {
            return;
        };
        let p = &self.rob[p_idx];
        let value_ready = p.value_ready_at;
        let inv = p.inv;
        // Walk the list by position: the loop never appends to the
        // producer's own list (waiters are only appended at rename), and
        // the list must survive for re-notification.
        for k in 0..p.waiters.len() {
            let w = self.rob[p_idx].waiters.get(k);
            // One ROB lookup per waiter: every field access below goes
            // through this borrow.
            let Some(i) = self.rob.idx(w) else { continue };
            let d = &mut self.rob[i];
            if d.issued {
                continue;
            }
            let mut changed = false;
            for s in 0..2 {
                if d.src_producers[s] == Some(producer) {
                    if d.src_ready[s] == Cycle::MAX {
                        d.unresolved_srcs -= 1;
                    }
                    d.src_ready[s] = value_ready;
                    d.src_inv[s] = inv;
                    changed = true;
                }
            }
            if changed && d.unresolved_srcs == 0 {
                let rt = d.src_ready[0].max(d.src_ready[1]).max(d.fetched_at + 1);
                d.ready_time = rt;
                self.post_ready(rt, w);
            }
        }
    }

    /// Queues an operand-ready promotion. Every post is strictly in the
    /// future.
    fn post_ready(&mut self, t: Cycle, seq: DynSeq) {
        debug_assert!(
            t > self.now,
            "operand-ready post at {t} not after {}",
            self.now
        );
        self.wakeups.post(t, seq);
    }

    // ---------------------------------------------------------- writeback

    fn writeback(&mut self, now: Cycle) {
        while let Some((t, seq)) = self.completions.pop_due(now) {
            let Some(i) = self.rob.idx(seq) else { continue };
            let d = &mut self.rob[i];
            if d.completed || d.complete_at != t {
                continue; // squash-then-reuse or stale event
            }
            d.completed = true;
            if d.is_branch() {
                self.resolve_branch(i, now);
            }
        }
    }

    fn resolve_branch(&mut self, idx: usize, now: Cycle) {
        let d = &self.rob[idx];
        let seq = d.dyn_seq;
        let inv = d.inv;
        let mispredicted = d.mispredicted;
        let trace_seq = d.trace_seq;
        let inst = d.inst.clone();
        let outcome = d.bp_outcome.clone();
        if d.wrong_path {
            return; // wrong-path instructions carry no branches by
                    // construction, but stay safe
        }
        if inv {
            // Runahead: the branch outcome is unknowable in hardware; the
            // pipeline keeps following the prediction. No training, no
            // recovery.
            return;
        }
        if let Some(outcome) = &outcome {
            self.bp.resolve(&inst, outcome);
        }
        if mispredicted {
            self.stats.squashes += 1;
            #[cfg(feature = "trace")]
            self.trace(now, TraceEventKind::Squash { at_seq: seq });
            self.squash_younger(seq);
            let resume = trace_seq.expect("correct-path branch has a trace seq") + 1;
            self.front
                .redirect(resume, now + self.mispredict_penalty() as Cycle);
        }
    }

    fn squash_younger(&mut self, seq: DynSeq) {
        while self.rob.back().is_some_and(|d| d.dyn_seq > seq) {
            // Read the vacated tail slot in place.
            let d = self.rob.pop_back().expect("checked non-empty");
            if let Some((reg, prev)) = d.prev_map {
                self.rename.rollback(reg, prev);
            }
            if d.in_iq {
                self.iq_occ -= 1;
            }
        }
        self.lsq.squash_younger(seq);
        while self.blocked_loads.back().is_some_and(|&s| s > seq) {
            self.blocked_loads.pop_back();
        }
        // Clear ready bits above the squash point by walking the ring
        // over the (about-to-be-recycled) younger window.
        let mut s = seq + 1;
        while let Some(r) = self.ready.next_at_or_after(s, self.next_dyn) {
            self.ready.remove(r);
            s = r + 1;
        }
        // Reuse the squashed sequence numbers so ROB dyn_seqs stay
        // contiguous (the ROB ring relies on it). Stale heap entries naming a
        // reused seq are filtered: completions check complete_at and
        // wakeups check ready_time against the live instruction.
        self.next_dyn = seq + 1;
    }

    // ------------------------------------------------------------- commit

    fn commit(&mut self, now: Cycle) {
        // Test-only fault injection: simulate the modelling bugs the
        // harness must survive. A frozen commit stage livelocks the core
        // (the watchdog's job to catch); a panic models a crash.
        if let Some(fault) = &self.cfg.fault {
            if let Some(at) = fault.panic_after {
                if self.total_committed >= at {
                    panic!(
                        "injected core fault: panic after {at} committed instructions \
                         (cycle {now})"
                    );
                }
            }
            if fault
                .freeze_commit_after
                .is_some_and(|at| self.total_committed >= at)
            {
                return;
            }
        }
        for _ in 0..self.cfg.commit_width {
            let Some(head) = self.rob.front() else { break };
            let in_runahead = self.episode.is_some();
            if head.complete_at <= now {
                self.retire_head(now, in_runahead);
                continue;
            }
            // Head not complete: runahead entry/pseudo-retire decisions.
            let head_blocked_l2_load = head.inst.op == OpClass::Load && head.issued && head.l2_miss;
            if in_runahead {
                if head_blocked_l2_load {
                    // Pseudo-retire the miss with an INV result.
                    let seq = head.dyn_seq;
                    self.force_inv(seq, now);
                    self.retire_head(now, true);
                    continue;
                }
                break;
            }
            if self.cfg.runahead.is_some() && head_blocked_l2_load && !head.wrong_path {
                let pc = head.inst.pc;
                let seq = head.dyn_seq;
                let opts = self.cfg.runahead.as_ref().expect("checked is_some");
                // A nearly-resolved miss cannot buy a useful episode
                // (ISCA 2005 efficiency technique): stall normally.
                let remaining = head.value_ready_at.saturating_sub(now);
                if remaining < opts.min_entry_remaining as Cycle {
                    if self.last_suppressed != Some(seq) {
                        self.last_suppressed = Some(seq);
                        self.stats.runahead_short_skips += 1;
                    }
                    break;
                }
                let useful = self.cst.as_ref().is_none_or(|c| c.predict_useful(pc));
                if useful {
                    self.enter_runahead(now);
                    self.retire_head(now, true);
                    continue;
                } else if self.last_suppressed != Some(seq) {
                    self.last_suppressed = Some(seq);
                    self.stats.runahead_suppressed += 1;
                }
            }
            break;
        }
    }

    fn retire_head(&mut self, now: Cycle, in_runahead: bool) {
        // The vacated head slot is read in place: nothing below pushes.
        let d = self.rob.pop_front().expect("retire from empty ROB");
        if d.in_iq {
            self.iq_occ -= 1;
        }
        if let Some(dest) = d.inst.dest {
            self.rename.commit(dest, d.dyn_seq);
        }
        if d.is_mem() {
            self.lsq.commit(d.dyn_seq);
        }
        // The head is the oldest live seq, so it can only sit at the
        // front of the (age-sorted) blocked deque.
        if self.blocked_loads.front() == Some(&d.dyn_seq) {
            self.blocked_loads.pop_front();
        }
        self.ready.remove(d.dyn_seq);

        if in_runahead {
            // Pseudo-retirement: results go nowhere architectural; stores
            // feed the runahead cache so younger runahead loads can
            // forward.
            if let Some(dest) = d.inst.dest {
                self.arch_inv[dest.index()] = d.inv;
            }
            if d.inst.op == OpClass::Store {
                let inv = d.inv;
                if let (Some(cache), Some(m)) = (self.ra_cache.as_mut(), &d.inst.mem) {
                    cache.write(m.addr, inv);
                }
            }
            return;
        }

        debug_assert!(!d.wrong_path, "wrong-path instruction reached commit");
        let trace_seq = d.trace_seq;
        self.last_commit_cycle = now;
        self.stats.committed_insts += 1;
        self.total_committed += 1;
        if let Some(dest) = d.inst.dest {
            self.arch_inv[dest.index()] = false;
        }
        match d.inst.op {
            OpClass::Load => {
                self.stats.committed_loads += 1;
                // Effective latency: from issue (entering the memory
                // system or the blocked-behind-a-store wait) to data
                // availability — what Table 3 reports.
                self.stats.load_latency_sum += d.value_ready_at.saturating_sub(d.issued_at);
            }
            OpClass::Store => {
                self.stats.committed_stores += 1;
                // The store retires to the cache hierarchy now.
                if let Some(m) = d.inst.mem {
                    let pc = d.inst.pc;
                    let r = self
                        .mem
                        .access(AccessKind::Store, pc, m.addr, now, PathKind::Correct);
                    if r.l2_demand_miss {
                        self.l2_miss_events += 1;
                        #[cfg(feature = "trace")]
                        self.trace_llc_miss(now, pc, m.addr);
                    }
                }
            }
            OpClass::CondBranch | OpClass::Jump => {
                self.stats.committed_branches += 1;
                if d.inst.op == OpClass::CondBranch {
                    self.stats.committed_cond_branches += 1;
                }
                if d.mispredicted {
                    self.stats.committed_mispredicts += 1;
                }
            }
            _ => {}
        }
        if let Some(ts) = trace_seq {
            self.front.retire_below(ts + 1);
        }
    }

    // ----------------------------------------------------------- runahead

    fn enter_runahead(&mut self, now: Cycle) {
        let head = self.rob.front().expect("trigger requires a head");
        let resume_seq = head
            .trace_seq
            .expect("runahead triggers on correct-path loads");
        let end_at = head.value_ready_at.max(now + 1);
        let trigger_pc = head.inst.pc;
        let seq = head.dyn_seq;
        self.episode = Some(Episode {
            resume_seq,
            end_at,
            trigger_pc,
            l2_misses: 0,
        });
        self.stats.runahead_episodes += 1;
        self.force_inv(seq, now);
        #[cfg(feature = "trace")]
        self.trace(now, TraceEventKind::RunaheadEnter { trigger_pc });
    }

    /// Marks an instruction's result INV and available immediately,
    /// re-notifying dependents that were promised a later time.
    fn force_inv(&mut self, seq: DynSeq, now: Cycle) {
        let Some(i) = self.rob.idx(seq) else { return };
        self.rob[i].inv = true;
        self.rob[i].value_ready_at = now + 1;
        self.rob[i].complete_at = now;
        self.notify_waiters(seq);
    }

    fn exit_runahead(&mut self, now: Cycle) {
        let ep = self.episode.take().expect("exit requires an episode");
        // Squash the entire speculative window back to the checkpoint.
        self.rob.clear();
        self.iq_occ = 0;
        self.lsq.clear();
        self.blocked_loads.clear();
        self.ready.clear();
        self.wakeups.clear();
        self.completions.clear();
        self.fu.flush();
        self.rename = RenameMap::new();
        self.arch_inv = [false; 64];
        if let Some(cache) = self.ra_cache.as_mut() {
            cache.clear();
        }
        let threshold = self
            .cfg
            .runahead
            .as_ref()
            .map_or(1, |o| o.cst_useful_threshold);
        let useful = ep.l2_misses >= threshold;
        if useful {
            self.stats.runahead_useful_episodes += 1;
        }
        if let Some(cst) = self.cst.as_mut() {
            cst.update(ep.trigger_pc, useful);
        }
        #[cfg(feature = "trace")]
        self.trace(
            now,
            TraceEventKind::RunaheadExit {
                l2_misses: ep.l2_misses,
                useful,
            },
        );
        // Resume from the checkpoint; the paper assumes no extra penalty
        // for the mode switch.
        self.front.redirect(ep.resume_seq, now);
    }

    // ------------------------------------------------------------- resize

    fn resize(&mut self, now: Cycle) {
        self.shrink_wait = false;
        let old_level = self.level;
        let misses = std::mem::take(&mut self.l2_miss_events);
        let max = self.cfg.levels.len() - 1;
        let target = self
            .policy
            .target_level(now, misses, self.level, max)
            .min(max);
        self.last_target = target;
        if target > self.level {
            let old = self.level;
            self.level = target;
            self.alloc_stall_until = self
                .alloc_stall_until
                .max(now + self.cfg.transition_penalty as Cycle);
            self.stats.transitions_up += 1;
            self.policy.on_transition(now, old, self.level);
            #[cfg(feature = "trace")]
            self.trace(
                now,
                TraceEventKind::LevelUp {
                    from: old,
                    to: self.level,
                    penalty: self.cfg.transition_penalty,
                },
            );
        } else if target < self.level {
            // Shrink one level per decision, only once the doomed regions
            // of ROB, IQ and LSQ are simultaneously vacant.
            let new_level = self.level - 1;
            let spec = self.cfg.levels[new_level];
            if self.rob.len() <= spec.rob
                && self.iq_occ <= spec.iq
                && self.lsq.occupancy() <= spec.lsq
            {
                let old = self.level;
                self.level = new_level;
                self.alloc_stall_until = self
                    .alloc_stall_until
                    .max(now + self.cfg.transition_penalty as Cycle);
                self.stats.transitions_down += 1;
                self.policy.on_transition(now, old, self.level);
                #[cfg(feature = "trace")]
                self.trace(
                    now,
                    TraceEventKind::LevelDown {
                        from: old,
                        to: self.level,
                        penalty: self.cfg.transition_penalty,
                    },
                );
            } else {
                self.shrink_wait = true;
            }
        }
        self.level_changed = self.level != old_level;
    }

    // -------------------------------------------------------------- issue

    fn issue(&mut self, now: Cycle) {
        // Until an event below proves otherwise, nothing this cycle
        // could change a blocked load's outcome on the next retry.
        self.issue_quiesced = true;

        // Promote instructions whose operands have arrived: a `(t, seq)`
        // wakeup moves `seq` into the ready set if it still describes it.
        // Stale wakeups (a squashed instruction's, or a time a runahead
        // INV override lowered) no longer match its `ready_time`. Wakeups
        // due next cycle (posted by this cycle's commit stage) stay
        // queued.
        self.wakeups.drain_due(now, |t, seq| {
            if let Some(i) = self.rob.idx(seq) {
                let d = &self.rob[i];
                if !d.issued && d.unresolved_srcs == 0 && d.ready_time == t {
                    self.ready.insert(seq);
                }
            }
        });

        // Retry loads blocked behind stores (oldest first); they consume
        // a cache port but not issue-queue bandwidth. Rotating the deque
        // once processes every entry and preserves the age order with no
        // allocation or re-sort.
        for _ in 0..self.blocked_loads.len() {
            let seq = self.blocked_loads.pop_front().expect("len-bounded pop");
            let Some(i) = self.rob.idx(seq) else { continue };
            let m = self.rob[i].inst.mem.expect("blocked entry is a load");
            match self.lsq.check_load(seq, &m) {
                LoadCheck::Blocked => self.blocked_loads.push_back(seq),
                check => {
                    if self.fu.try_issue(OpClass::Load, now, 1) {
                        self.perform_load(seq, now, check);
                    } else {
                        // Port-starved: the ports reset next cycle, so
                        // this load is issuable then.
                        self.blocked_loads.push_back(seq);
                        self.issue_quiesced = false;
                    }
                }
            }
        }

        // Select up to issue_width ready instructions, oldest first, by
        // walking the ready ring in place from the ROB head. The loop
        // body only ever clears bits at or behind the cursor, so the
        // walk sees exactly the set as it stood at loop entry.
        let mut issued = 0;
        let end = self.next_dyn;
        let mut cursor = self.rob.front().map_or(end, |d| d.dyn_seq);
        while issued < self.cfg.issue_width {
            let Some(seq) = self.ready.next_at_or_after(cursor, end) else {
                break;
            };
            cursor = seq + 1;
            let Some(i) = self.rob.idx(seq) else {
                self.ready.remove(seq);
                continue;
            };
            if self.rob[i].issued {
                self.ready.remove(seq);
                continue;
            }
            let op = self.rob[i].inst.op;
            match op {
                OpClass::Load => {
                    let m = self.rob[i].inst.mem.expect("load has a memref");
                    let base_inv = self.rob[i].src_inv[0] || self.rob[i].src_inv[1];
                    if base_inv {
                        // INV address: the load produces INV without
                        // touching memory (runahead semantics).
                        self.ready.remove(seq);
                        self.mark_issued(seq, now);
                        let depth = self.iq_depth();
                        let d = &mut self.rob[i];
                        d.inv = true;
                        d.mem_state = MemState::Issued;
                        d.value_ready_at = now + depth.max(2) as Cycle;
                        d.complete_at = d.value_ready_at;
                        self.notify_waiters(seq);
                        issued += 1;
                        continue;
                    }
                    match self.lsq.check_load(seq, &m) {
                        LoadCheck::Blocked => {
                            self.ready.remove(seq);
                            self.mark_issued(seq, now);
                            self.rob[i].mem_state = MemState::Blocked;
                            // Sorted insert (usually at the back: the
                            // walk hands out seqs oldest-first, but a
                            // late-arriving operand can make an old load
                            // ready after younger ones blocked).
                            let pos = self.blocked_loads.partition_point(|&s| s < seq);
                            self.blocked_loads.insert(pos, seq);
                            // No FU consumed; no issue-slot charged.
                        }
                        check => {
                            if !self.fu.try_issue(op, now, 1) {
                                continue;
                            }
                            self.ready.remove(seq);
                            self.perform_load(seq, now, check);
                            issued += 1;
                        }
                    }
                }
                OpClass::Store => {
                    if !self.fu.try_issue(op, now, 1) {
                        continue;
                    }
                    self.ready.remove(seq);
                    self.mark_issued(seq, now);
                    self.lsq.mark_issued(seq);
                    // An executed store can unblock a waiting load on
                    // the very next retry.
                    self.issue_quiesced = false;
                    let d = &mut self.rob[i];
                    d.inv = d.src_inv[0] || d.src_inv[1];
                    d.mem_state = MemState::Issued;
                    d.complete_at = now + 1;
                    issued += 1;
                }
                _ => {
                    let latency = op.exec_latency();
                    if !self.fu.try_issue(op, now, latency) {
                        continue;
                    }
                    self.ready.remove(seq);
                    self.mark_issued(seq, now);
                    let depth = self.iq_depth();
                    let d = &mut self.rob[i];
                    d.inv = d.src_inv[0] || d.src_inv[1];
                    d.value_ready_at = now + latency.max(depth) as Cycle;
                    d.complete_at = now + latency as Cycle;
                    if d.is_branch() {
                        self.completions.post(now + latency as Cycle, seq);
                    }
                    self.notify_waiters(seq);
                    issued += 1;
                }
            }
        }
    }

    fn mark_issued(&mut self, seq: DynSeq, now: Cycle) {
        self.stats.issued_total += 1;
        let i = self.rob.idx(seq).expect("issuing a live instruction");
        let d = &mut self.rob[i];
        debug_assert!(!d.issued);
        d.issued = true;
        d.issued_at = now;
        if d.in_iq {
            d.in_iq = false;
            self.iq_occ -= 1;
        }
    }

    /// Executes a load whose disambiguation check allowed it to proceed.
    fn perform_load(&mut self, seq: DynSeq, now: Cycle, check: LoadCheck) {
        let i = self.rob.idx(seq).expect("load is live");
        let m = self.rob[i].inst.mem.expect("load has a memref");
        let pc = self.rob[i].inst.pc;
        let wrong_path = self.rob[i].wrong_path;
        let depth = self.iq_depth() as Cycle;
        let in_runahead = self.episode.is_some();
        let l1_hit = self.cfg.memory.l1d.hit_latency as Cycle;

        let (value_ready, inv, mem_latency, l2_miss) = match check {
            LoadCheck::Forward(store_seq) => {
                let store_inv = self
                    .rob
                    .idx(store_seq)
                    .map(|si| self.rob[si].inv)
                    .unwrap_or(false);
                (now + l1_hit.max(depth), store_inv, l1_hit as u32, false)
            }
            LoadCheck::Access => {
                // Runahead loads may forward from pseudo-retired stores.
                if in_runahead {
                    let lookup = self
                        .ra_cache
                        .as_mut()
                        .map(|c| c.lookup(m.addr))
                        .unwrap_or(RaLookup::Miss);
                    match lookup {
                        RaLookup::Valid => (now + l1_hit.max(depth), false, l1_hit as u32, false),
                        RaLookup::Inv => (now + l1_hit.max(depth), true, l1_hit as u32, false),
                        RaLookup::Miss => self.load_from_memory(pc, m.addr, now, wrong_path),
                    }
                } else {
                    self.load_from_memory(pc, m.addr, now, wrong_path)
                }
            }
            LoadCheck::Blocked => unreachable!("caller filtered blocked loads"),
        };

        // In runahead mode an L2 miss yields INV immediately — the memory
        // request stays in flight (that is the prefetching benefit), but
        // dependents proceed with an invalid value.
        let (value_ready, inv) = if in_runahead && l2_miss {
            (now + l1_hit.max(depth), true)
        } else {
            (value_ready, inv)
        };

        if !self.rob[i].issued {
            self.mark_issued(seq, now);
        }
        let d = &mut self.rob[i];
        d.mem_state = MemState::Issued;
        d.mem_latency = mem_latency;
        d.l2_miss = l2_miss;
        d.inv = inv || d.src_inv[0] || d.src_inv[1];
        d.value_ready_at = value_ready.max(now + depth);
        d.complete_at = d.value_ready_at;
        self.notify_waiters(seq);
    }

    fn load_from_memory(
        &mut self,
        pc: Addr,
        addr: Addr,
        now: Cycle,
        wrong_path: bool,
    ) -> (Cycle, bool, u32, bool) {
        let in_runahead = self.episode.is_some();
        let path = if wrong_path || in_runahead {
            PathKind::Wrong
        } else {
            PathKind::Correct
        };
        let r = self.mem.access(AccessKind::Load, pc, addr, now + 1, path);
        if r.l2_demand_miss {
            self.l2_miss_events += 1;
            if let Some(ep) = self.episode.as_mut() {
                ep.l2_misses += 1;
            }
            #[cfg(feature = "trace")]
            self.trace_llc_miss(now, pc, addr);
        }
        (r.ready_at, false, r.latency, !r.l2_or_better)
    }

    // ----------------------------------------------------------- dispatch

    fn dispatch(&mut self, now: Cycle) {
        self.cycle_dispatched = 0;
        self.cycle_block = None;
        if now < self.alloc_stall_until {
            self.stats.stall_transition += 1;
            self.cycle_block = Some(DispatchBlock::Transition);
            return;
        }
        if self.shrink_wait {
            self.stats.stall_shrink_wait += 1;
            self.cycle_block = Some(DispatchBlock::ShrinkWait);
            return;
        }
        let spec = self.cfg.levels[self.level];
        for slot in 0..self.cfg.fetch_width {
            if self.rob.len() >= spec.rob {
                if slot == 0 {
                    self.stats.stall_rob_full += 1;
                    self.cycle_block = Some(DispatchBlock::RobFull);
                }
                break;
            }
            if self.iq_occ >= spec.iq {
                if slot == 0 {
                    self.stats.stall_iq_full += 1;
                    self.cycle_block = Some(DispatchBlock::IqFull);
                }
                break;
            }
            // Peek before popping: LSQ capacity only gates memory ops.
            let needs_lsq = {
                let Some(peek) = self.front_peek_ready(now) else {
                    if slot == 0 {
                        self.stats.stall_fetch_empty += 1;
                        self.cycle_block = Some(DispatchBlock::FetchEmpty);
                    }
                    break;
                };
                peek
            };
            if needs_lsq && self.lsq.occupancy() >= spec.lsq {
                if slot == 0 {
                    self.stats.stall_lsq_full += 1;
                    self.cycle_block = Some(DispatchBlock::LsqFull);
                }
                break;
            }
            let fetched = self
                .front
                .pop_ready(now)
                .expect("peeked entry must still be there");
            self.rename_and_insert(fetched, now);
            self.cycle_dispatched += 1;
        }
    }

    fn front_peek_ready(&mut self, now: Cycle) -> Option<bool> {
        self.front.peek_ready(now).map(|f| f.inst.op.is_mem())
    }

    fn rename_and_insert(&mut self, fetched: FetchedInst, now: Cycle) {
        let seq = self.next_dyn;
        self.next_dyn += 1;
        self.stats.dispatched_total += 1;
        if fetched.wrong_path {
            self.stats.wrongpath_dispatched += 1;
        }

        // Rename sources.
        let mut src_producers = [None, None];
        let mut src_ready = [0, 0];
        let mut src_inv = [false, false];
        let mut unresolved_srcs = 0;
        for (s, src) in fetched.inst.srcs.iter().enumerate() {
            let Some(reg) = src else { continue };
            match self.rename.producer(*reg) {
                None => {
                    src_inv[s] = self.arch_inv[reg.index()];
                }
                Some(p) => {
                    src_producers[s] = Some(p);
                    match self.rob.idx(p) {
                        Some(pi) if self.rob[pi].value_ready_at != Cycle::MAX => {
                            src_ready[s] = self.rob[pi].value_ready_at;
                            src_inv[s] = self.rob[pi].inv;
                            // Still register as a waiter: a runahead
                            // force-INV can lower the producer's ready
                            // time after the fact, and the re-notification
                            // must reach direct readers too.
                            self.rob[pi].waiters.push(seq);
                        }
                        Some(pi) => {
                            src_ready[s] = Cycle::MAX;
                            unresolved_srcs += 1;
                            self.rob[pi].waiters.push(seq);
                        }
                        None => {
                            // Producer left the ROB between map update and
                            // commit-clear: value is architectural.
                        }
                    }
                }
            }
        }

        // Rename destination.
        let prev_map = fetched
            .inst
            .dest
            .map(|dest| (dest.index(), self.rename.define(dest, seq)));

        // Enter the window resources.
        self.iq_occ += 1;
        if let Some(m) = fetched.inst.mem {
            self.lsq.allocate(seq, fetched.inst.op == OpClass::Store, m);
        }
        let mut ready_time = 0;
        if unresolved_srcs == 0 {
            ready_time = src_ready[0].max(src_ready[1]).max(now + 1);
            self.post_ready(ready_time, seq);
        }

        // Recycle the tail slot in place: no record is built and moved.
        let mispredicted = fetched.bp_outcome.as_ref().is_some_and(|o| o.mispredicted);
        let d = self.rob.push_back(seq);
        d.reset(
            seq,
            fetched.trace_seq,
            fetched.inst,
            fetched.wrong_path,
            fetched.fetched_at,
        );
        d.bp_outcome = fetched.bp_outcome;
        d.mispredicted = mispredicted;
        d.src_producers = src_producers;
        d.src_ready = src_ready;
        d.src_inv = src_inv;
        d.unresolved_srcs = unresolved_srcs;
        d.ready_time = ready_time;
        d.prev_map = prev_map;
        d.in_iq = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LevelSpec;
    use crate::policy::FixedLevelPolicy;
    use mlpwin_workloads::profiles;

    fn run_profile(name: &str, cfg: CoreConfig, level: usize, insts: u64) -> CoreStats {
        let w = profiles::by_name(name, 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(level)));
        core.run_warmup(30_000).expect("warm-up must not stall");
        core.run(insts).expect("healthy profile must not stall")
    }

    #[test]
    fn base_core_commits_and_reports_sane_ipc() {
        let s = run_profile("gcc", CoreConfig::default(), 0, 10_000);
        // Commit is up to 4-wide, so the run may overshoot by a group.
        assert!(s.committed_insts >= 10_000 && s.committed_insts < 10_004);
        assert!(s.ipc() > 0.8, "compute workload too slow: {}", s.ipc());
        assert!(s.ipc() <= 4.0, "cannot exceed machine width");
    }

    #[test]
    fn simulation_is_deterministic() {
        let a = run_profile("soplex", CoreConfig::default(), 0, 3_000);
        let b = run_profile("soplex", CoreConfig::default(), 0, 3_000);
        assert_eq!(a, b);
    }

    #[test]
    fn memory_intensive_profile_gains_from_level3() {
        let base = run_profile("libquantum", CoreConfig::default(), 0, 8_000);
        let big = run_profile("libquantum", CoreConfig::with_table2_levels(), 2, 8_000);
        assert!(
            big.ipc() > base.ipc() * 1.1,
            "large window should help libquantum: base {} vs L3 {}",
            base.ipc(),
            big.ipc()
        );
    }

    #[test]
    fn compute_profile_loses_from_pipelined_window() {
        // A serial-dependence compute workload issues back-to-back at
        // depth 1; depth 2 halves its dependent-issue rate.
        let l1 = run_profile("sjeng", CoreConfig::default(), 0, 10_000);
        let l3 = run_profile("sjeng", CoreConfig::with_table2_levels(), 2, 10_000);
        assert!(
            l3.ipc() < l1.ipc(),
            "pipelining should hurt sjeng: L1 {} vs L3 {}",
            l1.ipc(),
            l3.ipc()
        );
    }

    #[test]
    fn ideal_large_window_never_loses_to_pipelined_large_window() {
        let mut ideal_cfg = CoreConfig::with_table2_levels();
        ideal_cfg.levels = ideal_cfg
            .levels
            .into_iter()
            .map(LevelSpec::idealized)
            .collect();
        let ideal = run_profile("gobmk", ideal_cfg, 2, 10_000);
        let piped = run_profile("gobmk", CoreConfig::with_table2_levels(), 2, 10_000);
        assert!(
            ideal.ipc() >= piped.ipc() * 0.999,
            "ideal {} must not lose to pipelined {}",
            ideal.ipc(),
            piped.ipc()
        );
    }

    #[test]
    fn branches_resolve_and_train() {
        let s = run_profile("gobmk", CoreConfig::default(), 0, 20_000);
        assert!(s.committed_cond_branches > 1_000);
        assert!(s.committed_mispredicts > 0, "gobmk must mispredict");
        let dist = s.mispredict_distance();
        assert!(
            (20.0..3000.0).contains(&dist),
            "gobmk mispredict distance {dist} out of plausible range"
        );
    }

    #[test]
    fn loads_and_stores_commit() {
        let s = run_profile("mcf", CoreConfig::default(), 0, 5_000);
        assert!(s.committed_loads > 500);
        assert!(s.committed_stores > 50);
        assert!(s.avg_load_latency() > 10.0, "mcf is memory-intensive");
    }

    #[test]
    fn level_residency_sums_to_one() {
        let s = run_profile("gcc", CoreConfig::with_table2_levels(), 1, 5_000);
        let total: u64 = s.level_cycles.iter().sum();
        assert_eq!(total, s.cycles);
        assert_eq!(s.level_cycles[1], s.cycles, "fixed level 2");
    }

    #[test]
    fn wrong_path_instructions_never_commit() {
        let s = run_profile("gobmk", CoreConfig::default(), 0, 10_000);
        assert!(
            s.wrongpath_dispatched > 0,
            "mispredictions fetch wrong path"
        );
        assert!(s.committed_insts >= 10_000);
    }

    #[test]
    fn runahead_core_enters_and_exits_episodes() {
        let cfg = CoreConfig {
            runahead: Some(crate::config::RunaheadOpts::default()),
            ..CoreConfig::default()
        };
        let s = run_profile("libquantum", cfg, 0, 8_000);
        assert!(s.runahead_episodes > 0, "memory-bound profile must trigger");
        assert!(s.runahead_cycles > 0);
        assert!(s.committed_insts >= 8_000, "checkpoint restore must work");
    }

    #[test]
    fn frozen_commit_trips_the_watchdog_with_a_snapshot() {
        let cfg = CoreConfig {
            watchdog_cycles: 2_000, // keep the test fast
            fault: Some(crate::config::FaultInjection {
                freeze_commit_after: Some(500),
                panic_after: None,
            }),
            ..CoreConfig::default()
        };
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        let err = core.run(5_000).expect_err("frozen commit must stall");
        match &err {
            PipelineError::Stall { budget, snapshot } => {
                assert_eq!(*budget, 2_000);
                assert!(snapshot.stalled_for >= 2_000);
                assert!(snapshot.committed_insts >= 500);
                assert!(snapshot.cycle > 0);
                // A frozen commit backs the window up: the ROB holds
                // instructions and its head is renderable.
                assert!(snapshot.rob_len > 0);
                assert!(snapshot.rob_head.is_some());
            }
            other => panic!("expected Stall, got {other:?}"),
        }
    }

    #[test]
    fn deadline_fires_while_still_making_progress() {
        let cfg = CoreConfig {
            deadline_cycles: Some(1_000),
            ..CoreConfig::default()
        };
        let w = profiles::by_name("mcf", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        // mcf cannot retire 10M instructions in 1k cycles.
        let err = core.run(10_000_000).expect_err("deadline must fire");
        match &err {
            PipelineError::DeadlineExceeded { limit, snapshot } => {
                assert_eq!(*limit, 1_000);
                assert!(snapshot.committed_insts < 10_000_000);
                assert!(snapshot.stalled_for < 1_000, "still progressing");
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn injected_panic_counts_lifetime_commits_across_warmup() {
        let cfg = CoreConfig {
            fault: Some(crate::config::FaultInjection {
                freeze_commit_after: None,
                panic_after: Some(1_000),
            }),
            ..CoreConfig::default()
        };
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        // The trigger lands inside warm-up: reset_counters must not
        // restart the fault countdown.
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.run_warmup(700).expect("below trigger");
            core.run_warmup(700).expect("crosses trigger")
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("injected core fault"), "{msg}");
    }

    type TakenSnapshots = std::rc::Rc<std::cell::RefCell<Vec<(Cycle, Vec<u8>)>>>;

    fn capture_snapshots(
        cfg: &CoreConfig,
        profile: &str,
        level: usize,
        insts: u64,
    ) -> (CoreStats, TakenSnapshots) {
        let w = profiles::by_name(profile, 7).expect("profile");
        let mut core = Core::new(cfg.clone(), w, Box::new(FixedLevelPolicy::new(level)));
        let taken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = std::rc::Rc::clone(&taken);
        core.set_snapshot_sink(Box::new(move |cycle, bytes| {
            sink.borrow_mut().push((cycle, bytes));
        }));
        let stats = core.run(insts).expect("healthy profile must not stall");
        (stats, taken)
    }

    #[test]
    fn snapshot_resume_is_bit_identical_mid_measurement() {
        let cfg = CoreConfig {
            snapshot_cycles: Some(1_000),
            interval_cycles: Some(500),
            ..CoreConfig::default()
        };
        let (reference, taken) = capture_snapshots(&cfg, "mcf", 0, 6_000);
        let taken = taken.borrow();
        assert!(
            taken.len() >= 2,
            "cadence must fire: {} snapshots",
            taken.len()
        );
        // Resume from a mid-run image (not the last): a real crash loses
        // the tail of the run.
        let (at, bytes) = &taken[taken.len() / 2];
        let w = profiles::by_name("mcf", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        core.restore(bytes).expect("restore must succeed");
        assert_eq!(core.cycle(), *at);
        let resumed = core.resume_run().expect("resumed run must finish");
        assert_eq!(resumed, reference, "resume must be bit-identical");
    }

    #[test]
    fn snapshot_resume_is_bit_identical_with_runahead_and_dynamic_state() {
        let cfg = CoreConfig {
            runahead: Some(crate::config::RunaheadOpts::default()),
            snapshot_cycles: Some(1_500),
            interval_cycles: Some(1_000),
            ..CoreConfig::with_table2_levels()
        };
        let (reference, taken) = capture_snapshots(&cfg, "libquantum", 2, 8_000);
        let taken = taken.borrow();
        assert!(!taken.is_empty(), "cadence must fire");
        let (_, bytes) = taken.last().expect("non-empty");
        let w = profiles::by_name("libquantum", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(2)));
        core.restore(bytes).expect("restore must succeed");
        let resumed = core.resume_run().expect("resumed run must finish");
        assert_eq!(resumed, reference, "resume must be bit-identical");
    }

    #[test]
    fn snapshot_resume_spans_warmup_reset() {
        let cfg = CoreConfig {
            snapshot_cycles: Some(700),
            ..CoreConfig::default()
        };
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core = Core::new(cfg.clone(), w, Box::new(FixedLevelPolicy::new(0)));
        let taken = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let sink = std::rc::Rc::clone(&taken);
        core.set_snapshot_sink(Box::new(move |cycle, bytes| {
            sink.borrow_mut().push((cycle, bytes));
        }));
        core.run_warmup(3_000).expect("warm-up must not stall");
        let warmup_images = taken.borrow().len();
        assert!(warmup_images >= 1, "cadence must fire inside warm-up");
        let reference = core.run(4_000).expect("measurement must not stall");

        // Die inside warm-up, come back, finish warm-up, then measure.
        let (_, bytes) = taken.borrow()[warmup_images - 1].clone();
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        core.restore(&bytes).expect("restore must succeed");
        core.resume_warmup().expect("resumed warm-up must finish");
        let resumed = core.run(4_000).expect("measurement must not stall");
        assert_eq!(resumed, reference, "warm-up resume must be bit-identical");
    }

    #[test]
    fn snapshot_cadence_does_not_perturb_the_simulation() {
        // Same spec with and without a sink installed (and with the
        // cadence knob off entirely): identical results. The FF pin is
        // keyed on the config, so the knob itself may legally shift
        // nothing but host-side work.
        let cfg = CoreConfig {
            snapshot_cycles: Some(1_000),
            ..CoreConfig::default()
        };
        let (with_sink, _) = capture_snapshots(&cfg, "soplex", 0, 5_000);
        let w = profiles::by_name("soplex", 7).expect("profile");
        let mut plain = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        let without_sink = plain.run(5_000).expect("healthy profile must not stall");
        assert_eq!(with_sink, without_sink);
    }

    #[test]
    fn restore_rejects_truncated_trailing_and_mismatched_images() {
        let cfg = CoreConfig {
            snapshot_cycles: Some(1_000),
            ..CoreConfig::default()
        };
        let (_, taken) = capture_snapshots(&cfg, "gcc", 0, 4_000);
        let bytes = taken.borrow().last().expect("non-empty").1.clone();

        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        core.restore(&bytes[..bytes.len() / 2])
            .expect_err("truncated image must fail");

        let mut padded = bytes.clone();
        padded.push(0);
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core2 = Core::new(
            CoreConfig {
                snapshot_cycles: Some(1_000),
                ..CoreConfig::default()
            },
            w,
            Box::new(FixedLevelPolicy::new(0)),
        );
        assert_eq!(
            core2.restore(&padded).expect_err("trailing byte must fail"),
            SnapError::TrailingBytes { trailing: 1 }
        );

        // A core of different geometry must refuse the image.
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut other = Core::new(
            CoreConfig::with_table2_levels(),
            w,
            Box::new(FixedLevelPolicy::new(0)),
        );
        other
            .restore(&bytes)
            .expect_err("geometry mismatch must fail");

        // A `next_dyn` (bytes 16..24) that no longer sits right above the
        // ROB's youngest entry breaks the ring's sequence indexing.
        let rob_len = u64::from_le_bytes(bytes[24..32].try_into().expect("8 bytes"));
        assert!(rob_len > 0, "the image must hold a live window");
        let mut bumped = bytes.clone();
        let next_dyn = u64::from_le_bytes(bumped[16..24].try_into().expect("8 bytes"));
        bumped[16..24].copy_from_slice(&(next_dyn + 7).to_le_bytes());
        let w = profiles::by_name("gcc", 7).expect("profile");
        let mut core3 = Core::new(
            CoreConfig {
                snapshot_cycles: Some(1_000),
                ..CoreConfig::default()
            },
            w,
            Box::new(FixedLevelPolicy::new(0)),
        );
        assert_eq!(
            core3
                .restore(&bumped)
                .expect_err("bumped next_dyn must fail"),
            SnapError::Mismatch {
                what: "ROB sequence numbers"
            }
        );
    }

    #[test]
    fn runahead_entry_wakeups_survive_the_same_cycle_drain() {
        // Entering runahead at cycle t force-INVs the trigger load in the
        // commit stage, which wakes its dependents for t + 1 — ring
        // wakeups posted *before* that cycle's issue drains bucket t.
        // They must survive the drain and promote at t + 1.
        let cfg = CoreConfig {
            runahead: Some(crate::config::RunaheadOpts::default()),
            ..CoreConfig::default()
        };
        let w = profiles::by_name("libquantum", 7).expect("profile");
        let mut core = Core::new(cfg, w, Box::new(FixedLevelPolicy::new(0)));
        core.run_warmup(5_000).expect("warm-up must not stall");
        let mut checked = 0;
        for _ in 0..400_000 {
            if checked >= 20 {
                break;
            }
            let episodes = core.stats.runahead_episodes;
            let waiters: Vec<DynSeq> = core
                .rob
                .front()
                .map(|head| head.waiters.iter().collect())
                .unwrap_or_default();
            core.step();
            if core.stats.runahead_episodes == episodes {
                continue;
            }
            let t = core.now;
            let woken: Vec<DynSeq> = waiters
                .into_iter()
                .filter(|&seq| {
                    core.rob.idx(seq).is_some_and(|i| {
                        let d = &core.rob[i];
                        !d.issued && d.unresolved_srcs == 0 && d.ready_time == t + 1
                    })
                })
                .collect();
            let queued = core.wakeups.sorted_events();
            for &seq in &woken {
                assert!(
                    queued.binary_search(&(t + 1, seq)).is_ok(),
                    "cycle {t}: the wakeup of {seq} was dropped by the drain"
                );
            }
            core.step();
            for &seq in &woken {
                let promoted = core
                    .rob
                    .idx(seq)
                    .is_none_or(|i| core.rob[i].issued || core.ready.contains(seq));
                assert!(promoted, "cycle {}: {seq} was not promoted", t + 1);
            }
            checked += woken.len();
        }
        assert!(checked >= 20, "only {checked} runahead-entry wakeups seen");
    }

    #[test]
    fn snapshot_with_live_ring_and_heap_wakeups_and_a_pending_branch_resumes_bit_identically() {
        let w = profiles::by_name("gobmk", 7).expect("profile");
        let mut core = Core::new(CoreConfig::default(), w, Box::new(FixedLevelPolicy::new(0)));
        core.run_warmup(3_000).expect("warm-up must not stall");
        core.arm_run(6_000);
        let mut found = false;
        while core.stats.committed_insts < core.commit_stop {
            core.step();
            core.check_progress()
                .expect("healthy profile must not stall");
            // A bucket wakeup more than one cycle out exercises more of
            // the ring than next-cycle wakeups do, and a wakeup past the
            // ring's span exercises its heap.
            let now = core.now;
            let queued = core.wakeups.sorted_events();
            let near = queued
                .iter()
                .any(|&(t, _)| t > now + 1 && t <= now + WakeRing::SPAN);
            if core.stats.cycles > 500
                && near
                && core.wakeups.far_len() > 0
                && !core.completions.is_empty()
            {
                found = true;
                break;
            }
        }
        assert!(
            found,
            "no step left a multi-cycle ring wakeup, a heap wakeup and a branch"
        );
        let bytes = core.snapshot();
        let queued = core.wakeups.len();
        let reference = core.resume_run().expect("reference run must finish");

        let w = profiles::by_name("gobmk", 7).expect("profile");
        let mut resumed = Core::new(CoreConfig::default(), w, Box::new(FixedLevelPolicy::new(0)));
        resumed.restore(&bytes).expect("restore must succeed");
        assert_eq!(
            resumed.wakeups.far_len(),
            queued,
            "every wakeup restores into the ring's heap"
        );
        assert_eq!(resumed.snapshot(), bytes, "re-encoding must be identical");
        let stats = resumed.resume_run().expect("resumed run must finish");
        assert_eq!(stats, reference, "resume must be bit-identical");
    }

    #[test]
    fn runahead_helps_clustered_miss_workloads() {
        let base = run_profile("libquantum", CoreConfig::default(), 0, 8_000);
        let cfg = CoreConfig {
            runahead: Some(crate::config::RunaheadOpts::default()),
            ..CoreConfig::default()
        };
        let ra = run_profile("libquantum", cfg, 0, 8_000);
        assert!(
            ra.ipc() > base.ipc(),
            "runahead should beat base on libquantum: {} vs {}",
            ra.ipc(),
            base.ipc()
        );
    }
}
