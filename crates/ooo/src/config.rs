//! Core configuration: pipeline widths, the resource-level table,
//! optional runahead execution, and the forward-progress watchdog.

use mlpwin_branch::PredictorConfig;
use mlpwin_memsys::MemSystemConfig;
use std::fmt;

/// Default watchdog budget: cycles with no commit before the simulator
/// assumes a modelling bug (memory latency is 300; any real stall clears
/// in a few thousand cycles).
pub const DEFAULT_WATCHDOG_CYCLES: u64 = 500_000;

/// A structurally invalid [`CoreConfig`], rejected before a core is
/// built. Each variant names the first offending field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// A fetch/issue/commit width is zero.
    ZeroWidth,
    /// The resource-level ladder is empty.
    EmptyLevels,
    /// A level's ROB, IQ or LSQ has zero entries (1-based level index).
    EmptyResource(usize),
    /// A level's issue-queue depth is zero (1-based level index).
    ZeroIqDepth(usize),
    /// A level is smaller than its predecessor in some resource — the
    /// ladder must be monotone (1-based index of the smaller level).
    NonMonotoneLadder(usize),
    /// A function-unit pool has zero units.
    EmptyFuPool,
    /// The fetch queue has zero capacity.
    EmptyFetchQueue,
    /// The watchdog budget is zero — it could never observe a commit.
    ZeroWatchdog,
    /// The interval collector's epoch length is zero.
    ZeroIntervalEpoch,
    /// The snapshot cadence is zero cycles.
    ZeroSnapshotCadence,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroWidth => write!(f, "pipeline widths must be positive"),
            ConfigError::EmptyLevels => write!(f, "at least one resource level is required"),
            ConfigError::EmptyResource(l) => write!(f, "level {l} has an empty resource"),
            ConfigError::ZeroIqDepth(l) => write!(f, "level {l} iq_depth must be >= 1"),
            ConfigError::NonMonotoneLadder(l) => {
                write!(f, "level {} smaller than level {}", l, l - 1)
            }
            ConfigError::EmptyFuPool => {
                write!(f, "every function-unit pool needs at least one unit")
            }
            ConfigError::EmptyFetchQueue => write!(f, "fetch queue must have capacity"),
            ConfigError::ZeroWatchdog => write!(f, "watchdog budget must be positive"),
            ConfigError::ZeroIntervalEpoch => {
                write!(f, "interval epoch length must be positive")
            }
            ConfigError::ZeroSnapshotCadence => {
                write!(f, "snapshot cadence must be positive")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Size and pipelining of the window resources at one resource level
/// (one row of the paper's Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelSpec {
    /// Issue-queue entries.
    pub iq: usize,
    /// Reorder-buffer entries.
    pub rob: usize,
    /// Load/store-queue entries.
    pub lsq: usize,
    /// Issue-queue pipeline depth: dependent ops separated by
    /// `max(latency, depth)` cycles. Depth 1 = back-to-back capable.
    pub iq_depth: u32,
    /// Extra branch-misprediction penalty cycles at this level (deeper IQ
    /// plus pipelined ROB register read).
    pub extra_mispredict_penalty: u32,
}

impl Default for LevelSpec {
    /// Level 1 — the conventional processor's window.
    fn default() -> LevelSpec {
        LevelSpec::level1()
    }
}

impl LevelSpec {
    /// Level 1 of Table 2 — the conventional (base) processor.
    pub fn level1() -> LevelSpec {
        LevelSpec {
            iq: 64,
            rob: 128,
            lsq: 64,
            iq_depth: 1,
            extra_mispredict_penalty: 0,
        }
    }

    /// Level 2 of Table 2.
    pub fn level2() -> LevelSpec {
        LevelSpec {
            iq: 160,
            rob: 320,
            lsq: 160,
            iq_depth: 2,
            extra_mispredict_penalty: 2,
        }
    }

    /// Level 3 of Table 2.
    pub fn level3() -> LevelSpec {
        LevelSpec {
            iq: 256,
            rob: 512,
            lsq: 256,
            iq_depth: 2,
            extra_mispredict_penalty: 2,
        }
    }

    /// The full Table 2 ladder.
    pub fn table2() -> Vec<LevelSpec> {
        vec![
            LevelSpec::level1(),
            LevelSpec::level2(),
            LevelSpec::level3(),
        ]
    }

    /// The *ideal-model* variant of a level: same sizes, but un-pipelined
    /// and without extra penalties (the paper's upper-bound comparison).
    pub fn idealized(mut self) -> LevelSpec {
        self.iq_depth = 1;
        self.extra_mispredict_penalty = 0;
        self
    }
}

/// Runahead-execution options (paper §5.7 comparison). The runahead
/// cache and cause-status-table sizes, the usefulness threshold and the
/// entry gate are the paper's, fixed as constants in
/// [`runahead`](crate::runahead).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunaheadOpts {
    /// Enables the runahead cause status table, which suppresses entry
    /// into runahead episodes predicted useless.
    pub use_cause_status_table: bool,
}

impl Default for RunaheadOpts {
    /// The paper's configuration: the cause status table on.
    fn default() -> RunaheadOpts {
        RunaheadOpts {
            use_cause_status_table: true,
        }
    }
}

/// Full configuration of the simulated processor.
#[derive(Debug, Clone)]
pub struct CoreConfig {
    /// Fetch/decode/rename width per cycle.
    pub fetch_width: usize,
    /// Issue width per cycle.
    pub issue_width: usize,
    /// Commit width per cycle.
    pub commit_width: usize,
    /// Front-end depth: cycles from fetch to rename/dispatch.
    pub front_depth: u32,
    /// Fetch-queue capacity.
    pub fetch_queue: usize,
    /// Base branch-misprediction penalty (Table 1: 10 cycles).
    pub mispredict_penalty: u32,
    /// The resource-level ladder; index 0 is level 1. Must not be empty.
    pub levels: Vec<LevelSpec>,
    /// Allocation-stall cycles charged at each level transition.
    pub transition_penalty: u32,
    /// Function-unit counts indexed by [`mlpwin_isa::FuKind::index`].
    pub fu_counts: [usize; 5],
    /// Branch predictor configuration.
    pub predictor: PredictorConfig,
    /// Memory hierarchy configuration.
    pub memory: MemSystemConfig,
    /// Runahead execution; `None` disables it (the default).
    pub runahead: Option<RunaheadOpts>,
    /// Seed for the wrong-path synthesizer.
    pub wrongpath_seed: u64,
    /// Cycles with no commit before a run aborts with
    /// [`PipelineError::Stall`](crate::PipelineError::Stall).
    pub watchdog_cycles: u64,
    /// Per-run wall-cycle deadline: a call to [`Core::run`](crate::Core::run)
    /// (or warm-up) that simulates more than this many cycles aborts with
    /// [`PipelineError::DeadlineExceeded`](crate::PipelineError::DeadlineExceeded).
    /// `None` (the default) disables the limit.
    pub deadline_cycles: Option<u64>,
    /// Stall-cycle fast-forward: when dispatch is blocked and the whole
    /// pipeline is provably inert, jump `now` to the next event instead
    /// of stepping cycle by cycle, bulk-charging the skipped cycles to
    /// the same CPI bucket they would have accrued. Semantics-neutral by
    /// construction (the fastpath equivalence suite asserts bit-identical
    /// stats with it on and off); the knob exists for those A/B tests
    /// and for debugging. Default `true`.
    pub fast_forward: bool,
    /// Test-support fault injection: stop committing (silently, like a
    /// lost wakeup) once this many instructions have committed since
    /// construction — an injected livelock the watchdog must catch.
    /// `None` (the default) means a faithful simulation. Livelock is
    /// injected here rather than in a workload because a correct core
    /// cannot be livelocked by any well-formed instruction stream.
    pub freeze_commit_after: Option<u64>,
    /// Interval time-series epoch length in cycles; `None` (the
    /// default) disables collection. When set, the core appends one
    /// [`IntervalSample`](crate::stats::IntervalSample) to
    /// `CoreStats::intervals` every `interval_cycles` measured cycles.
    pub interval_cycles: Option<u64>,
    /// Record level transitions, runahead episodes, squashes and L2
    /// demand misses into a [`Tracer`](crate::Tracer) of
    /// [`trace::CAPACITY`](crate::trace::CAPACITY) events, read back
    /// through `Core::tracer`. Observability only: simulated results
    /// are identical either way. Default `false`.
    pub trace: bool,
    /// Mid-run snapshot cadence in cycles; `None` (the default)
    /// disables periodic snapshots. When set, the core offers a full
    /// state snapshot to its installed sink every `snapshot_cycles`
    /// measured cycles, and the stall fast-forward never skips across a
    /// cadence boundary — so snapshots land on the identical cycles
    /// with the fast-forward on and off.
    pub snapshot_cycles: Option<u64>,
}

impl Default for CoreConfig {
    /// The paper's base processor (Table 1): a level-1-only window.
    fn default() -> CoreConfig {
        CoreConfig {
            fetch_width: 4,
            issue_width: 4,
            commit_width: 4,
            front_depth: 4,
            fetch_queue: 16,
            mispredict_penalty: 10,
            levels: vec![LevelSpec::level1()],
            transition_penalty: 10,
            fu_counts: [4, 2, 2, 4, 2],
            predictor: PredictorConfig::default(),
            memory: MemSystemConfig::default(),
            runahead: None,
            wrongpath_seed: 0xBAD_C0DE,
            watchdog_cycles: DEFAULT_WATCHDOG_CYCLES,
            deadline_cycles: None,
            fast_forward: true,
            freeze_commit_after: None,
            interval_cycles: None,
            trace: false,
            snapshot_cycles: None,
        }
    }
}

impl CoreConfig {
    /// The paper's dynamic-resizing processor: the full Table 2 ladder.
    pub fn with_table2_levels() -> CoreConfig {
        CoreConfig {
            levels: LevelSpec::table2(),
            ..CoreConfig::default()
        }
    }

    /// Validates widths, levels, unit counts and the watchdog budget.
    ///
    /// # Errors
    ///
    /// Returns the first invalid field as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.fetch_width == 0 || self.issue_width == 0 || self.commit_width == 0 {
            return Err(ConfigError::ZeroWidth);
        }
        if self.levels.is_empty() {
            return Err(ConfigError::EmptyLevels);
        }
        for (i, l) in self.levels.iter().enumerate() {
            if l.iq == 0 || l.rob == 0 || l.lsq == 0 {
                return Err(ConfigError::EmptyResource(i + 1));
            }
            if l.iq_depth == 0 {
                return Err(ConfigError::ZeroIqDepth(i + 1));
            }
            if i > 0 {
                let p = &self.levels[i - 1];
                if l.iq < p.iq || l.rob < p.rob || l.lsq < p.lsq {
                    return Err(ConfigError::NonMonotoneLadder(i + 1));
                }
            }
        }
        if self.fu_counts.contains(&0) {
            return Err(ConfigError::EmptyFuPool);
        }
        if self.fetch_queue == 0 {
            return Err(ConfigError::EmptyFetchQueue);
        }
        if self.watchdog_cycles == 0 {
            return Err(ConfigError::ZeroWatchdog);
        }
        if self.interval_cycles == Some(0) {
            return Err(ConfigError::ZeroIntervalEpoch);
        }
        if self.snapshot_cycles == Some(0) {
            return Err(ConfigError::ZeroSnapshotCadence);
        }
        Ok(())
    }

    /// The largest (physical) level sizes — what the hardware provisions.
    pub fn max_level_spec(&self) -> LevelSpec {
        *self.levels.last().expect("levels validated non-empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_table1() {
        let c = CoreConfig::default();
        c.validate().unwrap();
        assert_eq!(c.fetch_width, 4);
        assert_eq!(c.mispredict_penalty, 10);
        assert_eq!(c.levels[0], LevelSpec::level1());
        assert_eq!(c.fu_counts, [4, 2, 2, 4, 2]);
    }

    #[test]
    fn table2_ladder_matches_the_paper() {
        let l = LevelSpec::table2();
        assert_eq!(l.len(), 3);
        assert_eq!(
            (l[0].iq, l[0].rob, l[0].lsq, l[0].iq_depth),
            (64, 128, 64, 1)
        );
        assert_eq!(
            (l[1].iq, l[1].rob, l[1].lsq, l[1].iq_depth),
            (160, 320, 160, 2)
        );
        assert_eq!(
            (l[2].iq, l[2].rob, l[2].lsq, l[2].iq_depth),
            (256, 512, 256, 2)
        );
    }

    #[test]
    fn idealized_level_is_unpipelined() {
        let i = LevelSpec::level3().idealized();
        assert_eq!(i.iq_depth, 1);
        assert_eq!(i.extra_mispredict_penalty, 0);
        assert_eq!(i.rob, 512);
    }

    #[test]
    fn validation_catches_bad_ladders() {
        let mut c = CoreConfig::with_table2_levels();
        c.levels[1].rob = 64; // smaller than level 1
        assert_eq!(c.validate(), Err(ConfigError::NonMonotoneLadder(2)));

        let mut c2 = CoreConfig::default();
        c2.levels.clear();
        assert_eq!(c2.validate(), Err(ConfigError::EmptyLevels));

        let mut c3 = CoreConfig::default();
        c3.levels[0].iq_depth = 0;
        assert_eq!(c3.validate(), Err(ConfigError::ZeroIqDepth(1)));

        let mut c4 = CoreConfig::default();
        c4.fu_counts[2] = 0;
        assert_eq!(c4.validate(), Err(ConfigError::EmptyFuPool));

        let c5 = CoreConfig {
            watchdog_cycles: 0,
            ..CoreConfig::default()
        };
        assert_eq!(c5.validate(), Err(ConfigError::ZeroWatchdog));

        let mut c6 = CoreConfig::with_table2_levels();
        c6.levels[2].lsq = 0;
        assert_eq!(c6.validate(), Err(ConfigError::EmptyResource(3)));
    }

    #[test]
    fn validation_catches_bad_observability_knobs() {
        let c = CoreConfig {
            interval_cycles: Some(0),
            ..CoreConfig::default()
        };
        assert_eq!(c.validate(), Err(ConfigError::ZeroIntervalEpoch));

        let c2 = CoreConfig {
            snapshot_cycles: Some(0),
            ..CoreConfig::default()
        };
        assert_eq!(c2.validate(), Err(ConfigError::ZeroSnapshotCadence));

        let ok = CoreConfig {
            interval_cycles: Some(1_000),
            trace: true,
            snapshot_cycles: Some(50_000),
            ..CoreConfig::default()
        };
        ok.validate().expect("well-formed observability knobs");
    }

    #[test]
    fn config_errors_render_their_field() {
        assert_eq!(
            ConfigError::NonMonotoneLadder(2).to_string(),
            "level 2 smaller than level 1"
        );
        assert!(ConfigError::ZeroWatchdog.to_string().contains("watchdog"));
    }

    #[test]
    fn max_level_spec_is_the_last() {
        let c = CoreConfig::with_table2_levels();
        assert_eq!(c.max_level_spec(), LevelSpec::level3());
    }
}
