//! The window-resizing policy interface and the paper's two policies.
//!
//! The core queries its [`WindowPolicy`] once per cycle with the number
//! of fresh demand L2 misses observed in the previous cycle; the policy
//! answers with the level (0-based index into
//! [`CoreConfig::levels`](crate::CoreConfig)) the window should be at.
//! Enlarging takes effect immediately (plus the transition stall);
//! shrinking is applied by the core only when the doomed regions are
//! vacant, and the core reports every completed transition back through
//! [`WindowPolicy::on_transition`].
//!
//! [`FixedLevelPolicy`] pins the window (the base, fixed-size and ideal
//! models); [`DynamicResizingPolicy`] is the paper's contribution, the
//! Fig. 5 MLP-aware controller.
//!
//! ## The Fig. 5 resizing algorithm
//!
//! Pseudo-code from the paper (variable names preserved):
//!
//! ```text
//! foreach cycle {
//!   if (L2_miss) {
//!     level = min(level + 1, max_level);        // enlarge
//!     shrink_timing = cycle + memory_latency;
//!     do_shrink = 0;
//!   } else if (cycle == shrink_timing) {
//!     do_shrink = 1;
//!   }
//!   if (level > 1 && do_shrink) {
//!     if (is_shrinkable(level)) {                // regions vacant?
//!       level = level - 1;                       // shrink
//!       shrink_timing = cycle + memory_latency;
//!       do_shrink = 0;
//!     } else {
//!       stop_alloc();                            // drain, then retry
//!     }
//!   }
//! }
//! ```
//!
//! The policy side of this (miss-triggered enlarge, latency-armed shrink)
//! is [`DynamicResizingPolicy`]; `is_shrinkable`/`stop_alloc` are the
//! core's resize mechanics, which report completed shrinks back via
//! [`WindowPolicy::on_transition`].
//!
//! ## Example
//!
//! ```
//! use mlpwin_ooo::{Core, CoreConfig, DynamicResizingPolicy};
//! use mlpwin_workloads::profiles;
//!
//! // The Table 2 ladder under the Fig. 5 controller, shrinking one
//! // memory latency after the last L2 miss.
//! let config = CoreConfig::with_table2_levels();
//! let policy = DynamicResizingPolicy::new(config.memory.dram.min_latency);
//! let workload = profiles::by_name("omnetpp", 1).expect("profile");
//! let mut core = Core::new(config, workload, Box::new(policy));
//! let stats = core.run(2_000).expect("healthy run");
//! assert!(stats.committed_insts >= 2_000);
//! ```

use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::Cycle;

/// Per-cycle window-level decision maker.
pub trait WindowPolicy {
    /// Returns the desired level (0-based) for this cycle.
    ///
    /// `l2_demand_misses` counts the fresh demand L2 misses the core
    /// observed since the previous query; `current_level` is the level
    /// actually in effect; `max_level` is the highest configured index.
    fn target_level(
        &mut self,
        now: Cycle,
        l2_demand_misses: u32,
        current_level: usize,
        max_level: usize,
    ) -> usize;

    /// Notification that a resize committed (shrinks may lag the request
    /// while the doomed region drains).
    fn on_transition(&mut self, _now: Cycle, _old_level: usize, _new_level: usize) {}

    /// Earliest future cycle at which, *assuming no L2 miss and no
    /// transition intervenes*, this policy's [`target_level`] answer
    /// could differ from the answer it gives at `now`.
    ///
    /// The core's stall-cycle fast-forward uses this to skip cycles where
    /// the whole pipeline is provably inert: it never skips past the
    /// returned cycle. Policies whose answer only ever changes in
    /// response to a miss or a transition may return [`Cycle::MAX`].
    ///
    /// The default — `now + 1`, i.e. "could change next cycle" —
    /// disables fast-forwarding for policies that do not opt in, which
    /// is always safe.
    ///
    /// [`target_level`]: WindowPolicy::target_level
    fn quiet_until(&self, now: Cycle, _current_level: usize) -> Cycle {
        now + 1
    }

    /// Serializes the policy's mutable state into a core snapshot.
    ///
    /// Stateless policies (the default) write nothing; stateful ones
    /// must write every field whose value affects a future
    /// [`target_level`](WindowPolicy::target_level) answer, in the same
    /// order [`load_state`](WindowPolicy::load_state) reads it back.
    fn save_state(&self, _w: &mut SnapWriter) {}

    /// Restores the state written by
    /// [`save_state`](WindowPolicy::save_state).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapError`] when the snapshot bytes do not decode to
    /// this policy's state.
    fn load_state(&mut self, _r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        Ok(())
    }
}

/// A policy pinning the window to one level forever — the paper's
/// fixed-size and ideal models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FixedLevelPolicy {
    level: usize,
}

impl FixedLevelPolicy {
    /// Pins the window to `level` (0-based).
    pub fn new(level: usize) -> FixedLevelPolicy {
        FixedLevelPolicy { level }
    }
}

impl WindowPolicy for FixedLevelPolicy {
    fn target_level(
        &mut self,
        _now: Cycle,
        _l2_demand_misses: u32,
        _current_level: usize,
        max_level: usize,
    ) -> usize {
        self.level.min(max_level)
    }

    fn quiet_until(&self, _now: Cycle, _current_level: usize) -> Cycle {
        // The answer is a compile-time constant: never a reason to step.
        Cycle::MAX
    }
}

/// The paper's MLP-aware dynamic resizing policy.
#[derive(Debug, Clone)]
pub struct DynamicResizingPolicy {
    memory_latency: u32,
    shrink_timing: Option<Cycle>,
    do_shrink: bool,
}

impl DynamicResizingPolicy {
    /// Creates the policy. `memory_latency` is the main-memory minimum
    /// latency (300 cycles in Table 1) — the shrink-arming timeout.
    ///
    /// # Panics
    ///
    /// Panics if `memory_latency` is zero.
    pub fn new(memory_latency: u32) -> DynamicResizingPolicy {
        assert!(memory_latency > 0, "memory latency must be positive");
        DynamicResizingPolicy {
            memory_latency,
            shrink_timing: None,
            do_shrink: false,
        }
    }

    /// Whether the policy currently wants to shrink (diagnostics).
    pub fn shrink_armed(&self) -> bool {
        self.do_shrink
    }
}

impl WindowPolicy for DynamicResizingPolicy {
    fn target_level(
        &mut self,
        now: Cycle,
        l2_demand_misses: u32,
        current_level: usize,
        max_level: usize,
    ) -> usize {
        if l2_demand_misses > 0 {
            // Enlarge (one level per decision, as in the paper: one miss
            // *event* per cycle raises the level by one) and re-arm the
            // shrink timer.
            self.shrink_timing = Some(now + self.memory_latency as Cycle);
            self.do_shrink = false;
            return (current_level + 1).min(max_level);
        }
        if self.shrink_timing.is_some_and(|t| now >= t) {
            self.do_shrink = true;
            self.shrink_timing = None;
        }
        if self.do_shrink && current_level > 0 {
            current_level - 1
        } else {
            current_level
        }
    }

    fn quiet_until(&self, _now: Cycle, _current_level: usize) -> Cycle {
        // Absent a miss (which the fast-forward precondition rules out)
        // the answer only changes when the armed shrink timer fires.
        // With the timer disarmed the policy either keeps requesting the
        // same shrink (do_shrink latched — a constant answer) or holds
        // the level: quiet indefinitely.
        self.shrink_timing.unwrap_or(Cycle::MAX)
    }

    fn on_transition(&mut self, now: Cycle, old_level: usize, new_level: usize) {
        if new_level < old_level {
            // Line 18–19 of Fig. 5: after an actual shrink, re-arm the
            // timer for the next one.
            self.shrink_timing = Some(now + self.memory_latency as Cycle);
            self.do_shrink = false;
        }
    }

    fn save_state(&self, w: &mut SnapWriter) {
        // memory_latency is construction-time configuration, not state.
        w.put_opt_u64(self.shrink_timing);
        w.put_bool(self.do_shrink);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.shrink_timing = r.get_opt_u64()?;
        self.do_shrink = r.get_bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Table 1's main-memory latency: the Fig. 5 shrink timeout.
    const LAT: u32 = 300;

    #[test]
    fn fixed_policy_is_constant_and_clamped() {
        let mut p = FixedLevelPolicy::new(2);
        assert_eq!(p.target_level(0, 5, 0, 2), 2);
        assert_eq!(p.target_level(100, 0, 2, 2), 2);
        // Clamped to the configured ladder.
        assert_eq!(p.target_level(0, 0, 0, 1), 1);
    }

    #[test]
    fn fixed_policy_is_quiet_forever() {
        let p = FixedLevelPolicy::new(1);
        assert_eq!(p.quiet_until(123, 1), Cycle::MAX);
    }

    #[test]
    fn default_quiet_until_disables_fast_forward() {
        struct Opaque;
        impl WindowPolicy for Opaque {
            fn target_level(&mut self, _: Cycle, _: u32, l: usize, _: usize) -> usize {
                l
            }
        }
        assert_eq!(Opaque.quiet_until(50, 0), 51);
    }

    #[test]
    fn miss_enlarges_and_saturates_at_max() {
        let mut p = DynamicResizingPolicy::new(LAT);
        assert_eq!(p.target_level(10, 1, 0, 2), 1);
        assert_eq!(p.target_level(11, 3, 1, 2), 2);
        assert_eq!(p.target_level(12, 1, 2, 2), 2, "clamped at max");
    }

    #[test]
    fn no_shrink_before_memory_latency_elapses() {
        let mut p = DynamicResizingPolicy::new(LAT);
        assert_eq!(p.target_level(100, 1, 0, 2), 1);
        p.on_transition(100, 0, 1);
        for t in 101..400 {
            assert_eq!(p.target_level(t, 0, 1, 2), 1, "cycle {t}");
        }
        // At 100 + 300 the shrink arms.
        assert_eq!(p.target_level(400, 0, 1, 2), 0);
    }

    #[test]
    fn miss_rearms_the_shrink_timer() {
        let mut p = DynamicResizingPolicy::new(LAT);
        let _ = p.target_level(100, 1, 0, 2); // -> level 1, timer at 400
        let _ = p.target_level(200, 1, 1, 2); // -> level 2, timer at 500
        assert_eq!(p.target_level(400, 0, 2, 2), 2, "old timer was reset");
        assert_eq!(p.target_level(500, 0, 2, 2), 1);
    }

    #[test]
    fn shrink_request_persists_until_transition_completes() {
        // Fig. 6 t4..t5: the shrink is postponed while the doomed region
        // drains; the policy must keep requesting it.
        let mut p = DynamicResizingPolicy::new(LAT);
        let _ = p.target_level(0, 1, 0, 2);
        assert_eq!(p.target_level(300, 0, 1, 2), 0);
        assert_eq!(p.target_level(301, 0, 1, 2), 0, "still requesting");
        assert!(p.shrink_armed());
        // The core finally shrinks at 350.
        p.on_transition(350, 1, 0);
        assert!(!p.shrink_armed());
        // Fully shrunk: at level 0 nothing more to do even when armed.
        for t in 351..1000 {
            assert_eq!(p.target_level(t, 0, 0, 2), 0);
        }
    }

    #[test]
    fn successive_shrinks_are_spaced_by_memory_latency() {
        // Fig. 6 t5..t6: after one shrink, the next happens another full
        // memory latency later.
        let mut p = DynamicResizingPolicy::new(LAT);
        let _ = p.target_level(0, 1, 0, 2);
        let _ = p.target_level(1, 1, 1, 2); // level 2, timer 301
        assert_eq!(p.target_level(301, 0, 2, 2), 1);
        p.on_transition(301, 2, 1); // timer re-armed to 601
        for t in 302..601 {
            assert_eq!(p.target_level(t, 0, 1, 2), 1, "cycle {t}");
        }
        assert_eq!(p.target_level(601, 0, 1, 2), 0);
    }

    #[test]
    fn fig6_level_trace() {
        // Reproduces the Fig. 6 timeline: misses at t0, t1, t2 (already
        // at max), then two latency-spaced shrinks.
        let mut p = DynamicResizingPolicy::new(LAT);
        let mut level = 0usize;
        let misses = [10u64, 60, 110];
        let mut trace = Vec::new();
        for t in 0..1200u64 {
            let miss = misses.contains(&t) as u32;
            let target = p.target_level(t, miss, level, 2);
            if target != level {
                p.on_transition(t, level, target);
                level = target;
                trace.push((t, level));
            }
        }
        assert_eq!(
            trace,
            vec![(10, 1), (60, 2), (410, 1), (710, 0)],
            "miss at 110 is absorbed at max level; shrinks at +300 each"
        );
    }

    #[test]
    #[should_panic(expected = "memory latency must be positive")]
    fn rejects_zero_latency() {
        let _ = DynamicResizingPolicy::new(0);
    }

    #[test]
    fn snapshot_round_trips_mid_decision_state() {
        let mut p = DynamicResizingPolicy::new(LAT);
        let _ = p.target_level(100, 1, 0, 2); // arms the shrink timer
        let mut w = SnapWriter::new();
        p.save_state(&mut w);
        let bytes = w.into_bytes();

        let mut q = DynamicResizingPolicy::new(LAT);
        let mut r = SnapReader::new(&bytes);
        q.load_state(&mut r).expect("decode");
        r.finish().expect("fully consumed");
        // The restored policy makes identical future decisions.
        for t in 101..=500 {
            assert_eq!(
                p.target_level(t, 0, 1, 2),
                q.target_level(t, 0, 1, 2),
                "cycle {t}"
            );
            assert_eq!(p.quiet_until(t, 1), q.quiet_until(t, 1));
        }
    }

    #[test]
    fn quiet_until_tracks_the_shrink_timer() {
        let mut p = DynamicResizingPolicy::new(LAT);
        // No timer armed: quiet forever.
        assert_eq!(p.quiet_until(0, 0), Cycle::MAX);
        // A miss arms the timer at now + latency.
        let _ = p.target_level(100, 1, 0, 2);
        assert_eq!(p.quiet_until(150, 1), 400);
        // Once the timer fires the shrink request latches and the timer
        // disarms: the (constant) answer can no longer change on its own.
        let _ = p.target_level(400, 0, 1, 2);
        assert!(p.shrink_armed());
        assert_eq!(p.quiet_until(401, 1), Cycle::MAX);
    }
}
