//! Core simulation statistics.

use mlpwin_isa::snap::{Snap, SnapError, SnapReader};
use mlpwin_isa::Counters;
use mlpwin_isa::Cycle;

/// Where one cycle of execution went. Every simulated cycle is charged
/// to exactly one bucket by the core's accounting pass, so the buckets
/// of [`CoreStats::cpi_stack`] provably sum to [`CoreStats::cycles`]
/// (asserted over every workload profile by `tests/accounting.rs`).
///
/// Attribution is dispatch-centric: a cycle in which at least one
/// instruction entered the window is `Base`; a cycle in which dispatch
/// was blocked is charged to the first blocking condition, refined by
/// what the machine was actually waiting on (a full ROB, IQ or LSQ
/// whose oldest instruction is an in-flight load is a `MemoryStall`,
/// not a capacity stall; an empty fetch queue during mispredict
/// recovery is `BranchRecovery`, not `FetchEmpty`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpiBucket {
    /// At least one instruction dispatched — base/commit-limited work.
    Base = 0,
    /// Dispatch blocked behind a window full of memory-stalled work
    /// (the head of the ROB is an issued, incomplete load).
    MemoryStall = 1,
    /// Dispatch blocked by a full reorder buffer (head not memory-bound).
    RobFull = 2,
    /// Dispatch blocked by a full issue queue.
    IqFull = 3,
    /// Dispatch blocked by a full load/store queue.
    LsqFull = 4,
    /// Allocation stalled by a level-transition penalty.
    Transition = 5,
    /// Allocation stalled waiting for a shrink region to drain.
    ShrinkDrain = 6,
    /// Fetch queue empty while the front end replays a branch-recovery
    /// redirect.
    BranchRecovery = 7,
    /// Fetch queue empty for any other reason (I-cache misses, taken
    /// branches fragmenting fetch groups).
    FetchEmpty = 8,
}

/// Number of [`CpiBucket`] variants (the width of a CPI-stack row).
pub const CPI_BUCKETS: usize = 9;

impl CpiBucket {
    /// Every bucket, in stack-plot order.
    pub const ALL: [CpiBucket; CPI_BUCKETS] = [
        CpiBucket::Base,
        CpiBucket::MemoryStall,
        CpiBucket::RobFull,
        CpiBucket::IqFull,
        CpiBucket::LsqFull,
        CpiBucket::Transition,
        CpiBucket::ShrinkDrain,
        CpiBucket::BranchRecovery,
        CpiBucket::FetchEmpty,
    ];

    /// Decodes a bucket from its discriminant (snapshot restore).
    pub fn from_tag(r: &mut SnapReader<'_>) -> Result<CpiBucket, SnapError> {
        let offset = r.offset();
        let tag = r.get_u8()?;
        CpiBucket::ALL
            .get(tag as usize)
            .copied()
            .ok_or(SnapError::BadTag {
                offset,
                tag,
                what: "CPI bucket",
            })
    }

    /// Stable short label for tables and exports.
    pub fn label(&self) -> &'static str {
        match self {
            CpiBucket::Base => "base",
            CpiBucket::MemoryStall => "mem",
            CpiBucket::RobFull => "rob",
            CpiBucket::IqFull => "iq",
            CpiBucket::LsqFull => "lsq",
            CpiBucket::Transition => "trans",
            CpiBucket::ShrinkDrain => "shrink",
            CpiBucket::BranchRecovery => "brrec",
            CpiBucket::FetchEmpty => "fetch",
        }
    }
}

mlpwin_isa::counters! {
    /// One entry of the interval time series: counters sampled at the end
    /// of each fixed-length cycle epoch (enabled by
    /// [`CoreConfig::interval_cycles`](crate::CoreConfig)). All fields are
    /// integers so the series is bit-exact across runs and thread counts.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct IntervalSample {
        /// Measured cycle the epoch ended at (multiples of the epoch length).
        pub end_cycle: Cycle,
        /// Instructions committed during this epoch (per-epoch IPC is
        /// `committed_insts / epoch`).
        pub committed_insts: u64,
        /// Window level at the sample point (0-based).
        pub level: u32,
        /// ROB occupancy at the sample point.
        pub rob_occ: u32,
        /// Issue-queue occupancy at the sample point.
        pub iq_occ: u32,
        /// Load/store-queue occupancy at the sample point.
        pub lsq_occ: u32,
        /// Outstanding cache misses (MSHR occupancy) at the sample point.
        pub outstanding_misses: u32,
    }
}

mlpwin_isa::counters! {
    /// Counters accumulated over a simulation run.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct CoreStats {
        /// Simulated cycles.
        pub cycles: u64,
        /// Committed-path instructions retired.
        pub committed_insts: u64,
        /// Committed loads.
        pub committed_loads: u64,
        /// Committed stores.
        pub committed_stores: u64,
        /// Committed control transfers.
        pub committed_branches: u64,
        /// Committed conditional branches.
        pub committed_cond_branches: u64,
        /// Committed branches that had been mispredicted.
        pub committed_mispredicts: u64,
        /// Summed end-to-end latency of committed loads (cycles).
        pub load_latency_sum: u64,

        /// Cycles spent at each resource level (index 0 = level 1) — Fig. 8.
        pub level_cycles: Vec<u64>,
        /// Per-level CPI stack: `cpi_stack[level][bucket]` cycles, indexed
        /// by [`CpiBucket`]. Each row sums to `level_cycles[level]`; the
        /// whole matrix sums to `cycles` (the conservation invariant).
        pub cpi_stack: Vec<[u64; CPI_BUCKETS]>,
        /// Interval time series; empty unless
        /// [`CoreConfig::interval_cycles`](crate::CoreConfig) is set.
        pub intervals: Vec<IntervalSample>,
        /// Completed enlargements.
        pub transitions_up: u64,
        /// Completed shrinks.
        pub transitions_down: u64,

        /// Cycles allocation was stalled by a level-transition penalty.
        pub stall_transition: u64,
        /// Cycles allocation was stalled waiting for a shrink region to drain.
        pub stall_shrink_wait: u64,
        /// Cycles allocation was blocked by a full ROB.
        pub stall_rob_full: u64,
        /// Cycles allocation was blocked by a full issue queue.
        pub stall_iq_full: u64,
        /// Cycles allocation was blocked by a full LSQ.
        pub stall_lsq_full: u64,
        /// Cycles nothing was ready to dispatch (fetch-limited).
        pub stall_fetch_empty: u64,

        /// Total instructions dispatched into the window (committed-path,
        /// wrong-path and runahead replays alike) — the energy model's
        /// activity base.
        pub dispatched_total: u64,
        /// Total instructions issued to function units.
        pub issued_total: u64,
        /// Pipeline squashes from branch recovery.
        pub squashes: u64,
        /// Wrong-path instructions that entered the pipeline.
        pub wrongpath_dispatched: u64,

        /// Runahead episodes entered.
        pub runahead_episodes: u64,
        /// Cycles spent in runahead mode.
        pub runahead_cycles: u64,
        /// Episodes suppressed by the cause status table.
        pub runahead_suppressed: u64,
        /// Entries skipped because too little of the miss latency remained.
        pub runahead_short_skips: u64,
        /// Episodes that overlapped at least one additional L2 miss.
        pub runahead_useful_episodes: u64,
    }
}

impl CoreStats {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed_insts as f64 / self.cycles as f64
        }
    }

    /// Average end-to-end latency of committed loads (Table 3).
    pub fn avg_load_latency(&self) -> f64 {
        if self.committed_loads == 0 {
            0.0
        } else {
            self.load_latency_sum as f64 / self.committed_loads as f64
        }
    }

    /// Committed instructions per committed misprediction (Table 5).
    /// Returns `committed_insts` when no branch mispredicted.
    pub fn mispredict_distance(&self) -> f64 {
        if self.committed_mispredicts == 0 {
            self.committed_insts as f64
        } else {
            self.committed_insts as f64 / self.committed_mispredicts as f64
        }
    }

    /// Fraction of cycles spent at `level` (0-based) — Fig. 8 series.
    pub fn level_residency(&self, level: usize) -> f64 {
        if self.cycles == 0 || level >= self.level_cycles.len() {
            0.0
        } else {
            self.level_cycles[level] as f64 / self.cycles as f64
        }
    }

    /// Cycles charged to `bucket`, summed across levels.
    pub fn cpi_bucket_cycles(&self, bucket: CpiBucket) -> u64 {
        self.cpi_stack.iter().map(|row| row[bucket as usize]).sum()
    }

    /// Every cycle the CPI stack accounts for; equals `cycles` by the
    /// conservation invariant.
    pub fn cpi_stack_cycles(&self) -> u64 {
        self.cpi_stack.iter().flatten().sum()
    }

    /// Fraction of all cycles charged to `bucket` (0 when no cycles ran).
    pub fn cpi_fraction(&self, bucket: CpiBucket) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.cpi_bucket_cycles(bucket) as f64 / self.cycles as f64
        }
    }

    /// Restores stats written by [`Snap::save`] into stats shaped for
    /// the same level ladder.
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let loaded = CoreStats::load(r)?;
        if let Some(what) = self.ladder_mismatch(&loaded) {
            return Err(SnapError::Mismatch { what });
        }
        *self = loaded;
        Ok(())
    }

    /// The per-level vector whose length differs from `other`'s, if any:
    /// stats from machines with different level ladders.
    fn ladder_mismatch(&self, other: &CoreStats) -> Option<&'static str> {
        if self.level_cycles.len() != other.level_cycles.len() {
            Some("level-cycle ladder")
        } else if self.cpi_stack.len() != other.cpi_stack.len() {
            Some("CPI-stack ladder")
        } else {
            None
        }
    }
}

/// How a [`StatsDelta`] subtraction can fail.
///
/// Interval stitching subtracts boundary statistics captured by two
/// different executions of the same run. Every counter is monotone
/// within a phase, so a well-formed `(start, end)` pair never
/// underflows — but a malformed pair (reversed boundaries, stats from
/// different specs, a boundary that landed past its cadence point
/// because a misaligned fast-forward skip jumped over it) would wrap
/// `u64` arithmetic into ~2^64 garbage that silently corrupts every
/// stitched total downstream. The checked subtraction turns each of
/// those into a typed, attributable error instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaError {
    /// `end` is smaller than `start` on the named counter — the
    /// boundaries are reversed or come from different executions.
    Underflow {
        /// The counter that would have wrapped.
        counter: &'static str,
    },
    /// The two boundaries disagree on a vector shape (level ladder or
    /// CPI-stack rows) — they were measured on different machines.
    ShapeMismatch {
        /// Which vector disagreed.
        what: &'static str,
    },
    /// `end`'s interval time series does not extend `start`'s — the
    /// samples already taken by `start` must be a bit-identical prefix
    /// of `end`'s, or the two captures are not points on one run.
    SeriesMismatch,
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::Underflow { counter } => write!(
                f,
                "stats delta underflow on `{counter}`: end precedes start \
                 (reversed, mismatched, or fast-forward-overshot boundaries)"
            ),
            DeltaError::ShapeMismatch { what } => {
                write!(f, "stats delta shape mismatch on {what}")
            }
            DeltaError::SeriesMismatch => write!(
                f,
                "stats delta interval series mismatch: end does not extend start"
            ),
        }
    }
}

impl std::error::Error for DeltaError {}

/// The statistics accumulated between two boundary states of one run:
/// `end − start`, computed counter-by-counter with checked arithmetic.
///
/// This is the unit the interval-parallel stitcher works in. Each
/// worker simulates one snapshot-delimited interval and reports its
/// delta; summing the deltas onto the interval-0 base reconstructs the
/// serial run's totals bit-for-bit (the CPI-stack conservation
/// invariant survives because it holds for both boundaries, hence for
/// their difference). The wrapped counters are deliberately private:
/// a delta is constructed by [`StatsDelta::between`] (which validates)
/// or [`StatsDelta::from_raw`] (decode paths), never field-by-field.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsDelta {
    stats: CoreStats,
}

/// Subtracts one scalar counter, naming it on underflow.
fn sub_counter(counter: &'static str, end: u64, start: u64) -> Result<u64, DeltaError> {
    end.checked_sub(start)
        .ok_or(DeltaError::Underflow { counter })
}

impl StatsDelta {
    /// Computes `end − start` with checked subtraction on every
    /// counter.
    ///
    /// # Errors
    ///
    /// [`DeltaError::Underflow`] when any counter decreased,
    /// [`DeltaError::ShapeMismatch`] when the level ladders differ, and
    /// [`DeltaError::SeriesMismatch`] when `end`'s interval series is
    /// not an extension of `start`'s.
    pub fn between(start: &CoreStats, end: &CoreStats) -> Result<StatsDelta, DeltaError> {
        if let Some(what) = start.ladder_mismatch(end) {
            return Err(DeltaError::ShapeMismatch { what });
        }
        if end.intervals.len() < start.intervals.len()
            || end.intervals[..start.intervals.len()] != start.intervals[..]
        {
            return Err(DeltaError::SeriesMismatch);
        }
        let mut level_cycles = Vec::with_capacity(end.level_cycles.len());
        for (e, s) in end.level_cycles.iter().zip(&start.level_cycles) {
            level_cycles.push(sub_counter("level_cycles", *e, *s)?);
        }
        let mut cpi_stack = Vec::with_capacity(end.cpi_stack.len());
        for (erow, srow) in end.cpi_stack.iter().zip(&start.cpi_stack) {
            let mut row = [0u64; CPI_BUCKETS];
            for (d, (e, s)) in row.iter_mut().zip(erow.iter().zip(srow.iter())) {
                *d = sub_counter("cpi_stack", *e, *s)?;
            }
            cpi_stack.push(row);
        }
        // The scalar counters: 0 + end - start.
        let mut stats = CoreStats {
            level_cycles,
            cpi_stack,
            intervals: end.intervals[start.intervals.len()..].to_vec(),
            ..CoreStats::default()
        };
        stats.add_counters(end);
        stats
            .sub_counters(start)
            .map_err(|counter| DeltaError::Underflow { counter })?;
        Ok(StatsDelta { stats })
    }

    /// Wraps already-validated per-interval counters (journal decode);
    /// the caller vouches that they came from [`StatsDelta::between`].
    pub fn from_raw(stats: CoreStats) -> StatsDelta {
        StatsDelta { stats }
    }

    /// The per-interval counters, shaped exactly like [`CoreStats`].
    pub fn as_stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Cycles covered by this delta.
    pub fn cycles(&self) -> u64 {
        self.stats.cycles
    }

    /// Instructions committed within this delta.
    pub fn committed_insts(&self) -> u64 {
        self.stats.committed_insts
    }

    /// Adds this delta onto accumulated totals: the stitcher's merge
    /// step. Scalars add, vectors add element-wise, and the interval
    /// series appends — so `base + Σ deltas` rebuilds the serial stats.
    ///
    /// # Errors
    ///
    /// [`DeltaError::ShapeMismatch`] when the ladders disagree.
    pub fn apply_to(&self, total: &mut CoreStats) -> Result<(), DeltaError> {
        let d = &self.stats;
        if let Some(what) = total.ladder_mismatch(d) {
            return Err(DeltaError::ShapeMismatch { what });
        }
        total.add_counters(d);
        for (t, v) in total.level_cycles.iter_mut().zip(&d.level_cycles) {
            *t += v;
        }
        for (trow, drow) in total.cpi_stack.iter_mut().zip(&d.cpi_stack) {
            for (t, v) in trow.iter_mut().zip(drow.iter()) {
                *t += v;
            }
        }
        total.intervals.extend(d.intervals.iter().copied());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let s = CoreStats {
            cycles: 1000,
            committed_insts: 1500,
            committed_loads: 100,
            load_latency_sum: 700,
            committed_mispredicts: 5,
            level_cycles: vec![600, 300, 100],
            ..Default::default()
        };
        assert!((s.ipc() - 1.5).abs() < 1e-12);
        assert!((s.avg_load_latency() - 7.0).abs() < 1e-12);
        assert!((s.mispredict_distance() - 300.0).abs() < 1e-12);
        assert!((s.level_residency(0) - 0.6).abs() < 1e-12);
        assert!((s.level_residency(2) - 0.1).abs() < 1e-12);
        assert_eq!(s.level_residency(9), 0.0);
    }

    #[test]
    fn zero_division_guards() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.avg_load_latency(), 0.0);
        assert_eq!(s.mispredict_distance(), 0.0);
        assert_eq!(s.level_residency(0), 0.0);
        assert_eq!(s.cpi_fraction(CpiBucket::Base), 0.0);
        assert_eq!(s.cpi_stack_cycles(), 0);
    }

    #[test]
    fn cpi_stack_accessors_sum_across_levels() {
        let mut row0 = [0u64; CPI_BUCKETS];
        row0[CpiBucket::Base as usize] = 60;
        row0[CpiBucket::MemoryStall as usize] = 20;
        let mut row1 = [0u64; CPI_BUCKETS];
        row1[CpiBucket::Base as usize] = 15;
        row1[CpiBucket::FetchEmpty as usize] = 5;
        let s = CoreStats {
            cycles: 100,
            level_cycles: vec![80, 20],
            cpi_stack: vec![row0, row1],
            ..Default::default()
        };
        assert_eq!(s.cpi_bucket_cycles(CpiBucket::Base), 75);
        assert_eq!(s.cpi_stack_cycles(), 100);
        assert!((s.cpi_fraction(CpiBucket::MemoryStall) - 0.2).abs() < 1e-12);
        assert_eq!(s.cpi_bucket_cycles(CpiBucket::RobFull), 0);
    }

    fn boundary_pair() -> (CoreStats, CoreStats) {
        let start = CoreStats {
            cycles: 100,
            committed_insts: 40,
            level_cycles: vec![60, 40],
            cpi_stack: vec![[10; CPI_BUCKETS], [0; CPI_BUCKETS]],
            intervals: vec![IntervalSample {
                end_cycle: 50,
                committed_insts: 20,
                ..Default::default()
            }],
            stall_rob_full: 7,
            ..Default::default()
        };
        let mut end = start.clone();
        end.cycles = 250;
        end.committed_insts = 90;
        end.level_cycles = vec![150, 100];
        end.cpi_stack = vec![[22; CPI_BUCKETS], [3; CPI_BUCKETS]];
        end.intervals.push(IntervalSample {
            end_cycle: 150,
            committed_insts: 33,
            ..Default::default()
        });
        end.stall_rob_full = 11;
        (start, end)
    }

    #[test]
    fn delta_between_and_apply_round_trip() {
        let (start, end) = boundary_pair();
        let delta = StatsDelta::between(&start, &end).unwrap();
        assert_eq!(delta.cycles(), 150);
        assert_eq!(delta.committed_insts(), 50);
        assert_eq!(delta.as_stats().intervals.len(), 1);
        assert_eq!(delta.as_stats().stall_rob_full, 4);
        let mut total = start.clone();
        delta.apply_to(&mut total).unwrap();
        assert_eq!(total, end);
    }

    #[test]
    fn delta_refuses_reversed_boundaries() {
        let (start, end) = boundary_pair();
        let err = StatsDelta::between(&end, &start).unwrap_err();
        assert!(matches!(err, DeltaError::SeriesMismatch));
        // Strip the series so the scalar check is what fires.
        let (mut start, mut end) = boundary_pair();
        start.intervals.clear();
        end.intervals.clear();
        let err = StatsDelta::between(&end, &start).unwrap_err();
        assert!(matches!(err, DeltaError::Underflow { .. }), "{err:?}");
    }

    #[test]
    fn delta_refuses_mismatched_shapes_and_series() {
        let (start, mut end) = boundary_pair();
        end.level_cycles.push(0);
        assert!(matches!(
            StatsDelta::between(&start, &end),
            Err(DeltaError::ShapeMismatch { .. })
        ));
        let (start, mut end) = boundary_pair();
        end.intervals[0].committed_insts += 1; // prefix no longer bit-identical
        assert_eq!(
            StatsDelta::between(&start, &end),
            Err(DeltaError::SeriesMismatch)
        );
    }

    #[test]
    fn bucket_labels_are_unique() {
        let mut labels: Vec<&str> = CpiBucket::ALL.iter().map(CpiBucket::label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), CPI_BUCKETS);
    }
}
