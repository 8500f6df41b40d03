//! Per-call timers around the two layers the core reaches through a
//! trait: the workload generator (`Workload::next_inst`, once per
//! fetched instruction) and the window-resizing controller
//! (`WindowPolicy`, consulted every stepped cycle). Each wrapper keeps a
//! call count and total nanoseconds in a shared [`Meter`] — an aggregate,
//! not a span per call — and otherwise forwards every trait method, so a
//! wrapped core simulates exactly what an unwrapped one does.

use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Cycle, Instruction};
use mlpwin_ooo::WindowPolicy;
use mlpwin_workloads::Workload;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// A call count and the host time those calls took.
#[derive(Debug, Default)]
pub struct Meter {
    calls: Cell<u64>,
    ns: Cell<u64>,
}

impl Meter {
    fn add(&self, started: Instant) {
        self.calls.set(self.calls.get() + 1);
        self.ns
            .set(self.ns.get() + started.elapsed().as_nanos() as u64);
    }

    /// `(calls, total ns)` so far.
    pub fn read(&self) -> (u64, u64) {
        (self.calls.get(), self.ns.get())
    }
}

/// Times every [`Workload::next_inst`] call of the wrapped generator.
pub struct TimedWorkload<W> {
    inner: W,
    meter: Rc<Meter>,
}

impl<W> TimedWorkload<W> {
    pub fn new(inner: W, meter: Rc<Meter>) -> TimedWorkload<W> {
        TimedWorkload { inner, meter }
    }
}

impl<W: Workload> Workload for TimedWorkload<W> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next_inst(&mut self) -> Instruction {
        let started = Instant::now();
        let inst = self.inner.next_inst();
        self.meter.add(started);
        inst
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

/// Times the wrapped policy's per-cycle queries (`target_level` and
/// `quiet_until`). Every method is forwarded: the trait's default
/// `quiet_until` is `now + 1`, so a wrapper that forgot it would
/// silently switch the stall fast-forward off.
pub struct TimedPolicy {
    inner: Box<dyn WindowPolicy>,
    meter: Rc<Meter>,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn WindowPolicy>, meter: Rc<Meter>) -> TimedPolicy {
        TimedPolicy { inner, meter }
    }
}

impl WindowPolicy for TimedPolicy {
    fn target_level(
        &mut self,
        now: Cycle,
        l2_demand_misses: u32,
        current_level: usize,
        max_level: usize,
    ) -> usize {
        let started = Instant::now();
        let level = self
            .inner
            .target_level(now, l2_demand_misses, current_level, max_level);
        self.meter.add(started);
        level
    }

    fn on_transition(&mut self, now: Cycle, old_level: usize, new_level: usize) {
        self.inner.on_transition(now, old_level, new_level);
    }

    fn quiet_until(&self, now: Cycle, current_level: usize) -> Cycle {
        let started = Instant::now();
        let until = self.inner.quiet_until(now, current_level);
        self.meter.add(started);
        until
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.inner.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.inner.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_ooo::Core;
    use mlpwin_sim::SimModel;
    use mlpwin_workloads::profiles;

    fn plain_core() -> Core<mlpwin_workloads::ProfileWorkload> {
        let (config, policy) = SimModel::Dynamic.build();
        let workload = profiles::by_name("libquantum", 1).expect("profile");
        Core::try_new(config, workload, policy).expect("valid config")
    }

    fn timed_core(
        workload: &Rc<Meter>,
        policy: &Rc<Meter>,
    ) -> Core<TimedWorkload<mlpwin_workloads::ProfileWorkload>> {
        let (config, inner) = SimModel::Dynamic.build();
        let generator = profiles::by_name("libquantum", 1).expect("profile");
        Core::try_new(
            config,
            TimedWorkload::new(generator, Rc::clone(workload)),
            Box::new(TimedPolicy::new(inner, Rc::clone(policy))),
        )
        .expect("valid config")
    }

    #[test]
    fn wrapped_core_simulates_and_skips_exactly_like_the_plain_one() {
        let (wm, pm) = (Rc::new(Meter::default()), Rc::new(Meter::default()));
        let mut plain = plain_core();
        let mut timed = timed_core(&wm, &pm);
        // No warm-up: libquantum's controller resizes only while the
        // caches are cold, within its first thousand instructions.
        plain.arm_run(20_000);
        timed.arm_run(20_000);
        assert!(!plain.run_to_cycle(5_000).expect("first half"));
        assert!(!timed.run_to_cycle(5_000).expect("first half"));
        // save_state reaches the wrapped workload and policy.
        let image = plain.snapshot();
        assert_eq!(timed.snapshot(), image);

        let plain_stats = plain.resume_run().expect("second half");
        let timed_stats = timed.resume_run().expect("second half");
        assert_eq!(timed_stats, plain_stats);
        assert_eq!(timed.engine_counters(), plain.engine_counters());
        assert!(
            plain.engine_counters().skipped_cycles > 0,
            "the fast-forward must be live for the comparison to mean anything"
        );
        assert!(
            plain_stats.transitions_up > 0 && plain_stats.transitions_down > 0,
            "the controller must resize both ways"
        );
        assert!(wm.read().0 > 0 && pm.read().0 > 0);

        // load_state reaches them too: a restored wrapped core replays the
        // plain one's second half.
        let mut restored = timed_core(&wm, &pm);
        restored.restore(&image).expect("restore");
        assert_eq!(restored.resume_run().expect("second half"), plain_stats);
    }
}
