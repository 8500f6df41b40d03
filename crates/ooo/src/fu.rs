//! Function-unit pools.
//!
//! Pipelined units accept one operation per cycle per unit; unpipelined
//! units (integer/FP divide, FP sqrt) are reserved until their operation
//! completes.

use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Cycle, FuKind, OpClass};

/// The five function-unit pools of the core.
#[derive(Debug, Clone)]
pub struct FuPool {
    counts: [usize; 5],
    /// Completion times of in-flight unpipelined reservations, per pool.
    busy: [Vec<Cycle>; 5],
    /// Total reservations across `busy` — lets [`FuPool::begin_cycle`]
    /// skip the per-pool expiry scans entirely on the (overwhelmingly
    /// common) cycles where no divide/sqrt is in flight.
    busy_total: usize,
    /// Issues performed this cycle, per pool (reset by [`FuPool::begin_cycle`]).
    issued_this_cycle: [usize; 5],
}

impl FuPool {
    /// Creates the pools with the given unit counts (indexed by
    /// [`FuKind::index`]).
    ///
    /// # Panics
    ///
    /// Panics if any pool is empty.
    pub fn new(counts: [usize; 5]) -> FuPool {
        assert!(counts.iter().all(|&c| c > 0), "every pool needs a unit");
        FuPool {
            counts,
            busy: Default::default(),
            busy_total: 0,
            issued_this_cycle: [0; 5],
        }
    }

    /// Starts a new cycle: clears per-cycle issue counts and expires
    /// finished unpipelined reservations.
    #[inline]
    pub fn begin_cycle(&mut self, now: Cycle) {
        self.issued_this_cycle = [0; 5];
        if self.busy_total > 0 {
            for pool in &mut self.busy {
                pool.retain(|&t| t > now);
            }
            self.busy_total = self.busy.iter().map(Vec::len).sum();
        }
    }

    /// Issues `op` at `now` with execution latency `latency` if a unit
    /// of its pool is free this cycle, reserving the unit until
    /// `now + latency` for unpipelined classes. Returns `false`, leaving
    /// the pool unchanged, when every unit is taken.
    #[inline]
    pub fn try_issue(&mut self, op: OpClass, now: Cycle, latency: u32) -> bool {
        let k = op.fu_kind().index();
        if self.busy[k].len() + self.issued_this_cycle[k] >= self.counts[k] {
            return false;
        }
        if op.is_unpipelined() {
            // The busy reservation itself blocks the unit for the rest of
            // this cycle and beyond; counting it in issued_this_cycle too
            // would double-book the unit.
            self.busy[k].push(now + latency as Cycle);
            self.busy_total += 1;
        } else {
            self.issued_this_cycle[k] += 1;
        }
        true
    }

    /// Units of `kind` still available this cycle.
    pub fn available(&self, kind: FuKind) -> usize {
        let k = kind.index();
        self.counts[k] - self.busy[k].len() - self.issued_this_cycle[k]
    }

    /// Clears all unpipelined reservations (pipeline squash).
    pub fn flush(&mut self) {
        for pool in &mut self.busy {
            pool.clear();
        }
        self.busy_total = 0;
    }

    /// Serializes the unpipelined reservations. Per-cycle issue counts
    /// are skipped: [`FuPool::begin_cycle`] resets them before any issue
    /// decision, and snapshots are only taken between steps.
    pub fn save_state(&self, w: &mut SnapWriter) {
        for pool in &self.busy {
            w.put_u64_slice(pool);
        }
    }

    /// Restores the reservations written by [`FuPool::save_state`].
    pub fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        for pool in &mut self.busy {
            *pool = r.get_u64_vec()?;
        }
        self.busy_total = self.busy.iter().map(Vec::len).sum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> FuPool {
        FuPool::new([4, 2, 2, 4, 2])
    }

    /// Every observable part of the pool's state.
    fn state(p: &FuPool) -> ([usize; 5], [Vec<Cycle>; 5], usize) {
        let avail = FuKind::ALL.map(|k| p.available(k));
        (avail, p.busy.clone(), p.busy_total)
    }

    #[test]
    fn pipelined_units_take_one_op_each_per_cycle() {
        let mut p = pool();
        for now in 0..3 {
            p.begin_cycle(now);
            for _ in 0..4 {
                assert!(p.try_issue(OpClass::IntAlu, now, 1));
            }
            assert!(!p.try_issue(OpClass::IntAlu, now, 1), "cycle {now}");
            // Other pools unaffected.
            assert_eq!(p.available(FuKind::MemPort), 2);
            assert!(p.try_issue(OpClass::Load, now, 1));
            assert!(p.try_issue(OpClass::Store, now, 1));
            assert!(!p.try_issue(OpClass::Load, now, 1), "two ports per cycle");
        }
    }

    #[test]
    fn pipelined_multiplies_issue_every_cycle() {
        let mut p = pool();
        p.begin_cycle(0);
        assert!(p.try_issue(OpClass::IntMul, 0, 3));
        assert!(p.try_issue(OpClass::IntMul, 0, 3));
        assert!(!p.try_issue(OpClass::IntMul, 0, 3));
        p.begin_cycle(1);
        assert!(
            p.try_issue(OpClass::IntMul, 1, 3),
            "pipelined: next cycle free"
        );
    }

    #[test]
    fn unpipelined_reservations_span_cycles() {
        let mut p = pool();
        p.begin_cycle(0);
        assert!(p.try_issue(OpClass::IntDiv, 0, 20));
        assert!(p.try_issue(OpClass::IntDiv, 0, 20));
        assert!(!p.try_issue(OpClass::IntDiv, 0, 20));
        assert!(
            !p.try_issue(OpClass::IntMul, 0, 3),
            "mul shares the div pool"
        );
        p.begin_cycle(5);
        assert!(
            !p.try_issue(OpClass::IntDiv, 5, 20),
            "still busy at cycle 5"
        );
        assert_eq!(p.available(FuKind::IntMulDiv), 0);
        p.begin_cycle(20);
        assert_eq!(
            p.available(FuKind::IntMulDiv),
            2,
            "freed when latency elapsed"
        );
        // A reservation blocks its unit in its own issue cycle too.
        assert!(p.try_issue(OpClass::IntDiv, 20, 20));
        assert_eq!(p.available(FuKind::IntMulDiv), 1);
        assert!(p.try_issue(OpClass::IntMul, 20, 3));
        assert_eq!(p.available(FuKind::IntMulDiv), 0);
        p.begin_cycle(21);
        assert_eq!(
            p.available(FuKind::IntMulDiv),
            1,
            "only the divide holds on"
        );
    }

    #[test]
    fn a_refusal_leaves_the_pool_unchanged() {
        let mut p = pool();
        p.begin_cycle(0);
        assert!(p.try_issue(OpClass::FpDiv, 0, 12));
        assert!(p.try_issue(OpClass::FpMul, 0, 4));
        let before = state(&p);
        assert!(!p.try_issue(OpClass::FpDiv, 0, 12));
        assert!(!p.try_issue(OpClass::FpMul, 0, 4));
        assert_eq!(state(&p), before);
    }

    #[test]
    fn flush_releases_reservations() {
        let mut p = pool();
        p.begin_cycle(0);
        assert!(p.try_issue(OpClass::FpDiv, 0, 12));
        p.flush();
        p.begin_cycle(1);
        assert_eq!(p.available(FuKind::FpMulDiv), 2);
    }

    #[test]
    fn available_counts() {
        let mut p = pool();
        p.begin_cycle(0);
        assert_eq!(p.available(FuKind::MemPort), 2);
        assert!(p.try_issue(OpClass::Load, 0, 1));
        assert_eq!(p.available(FuKind::MemPort), 1);
    }
}
