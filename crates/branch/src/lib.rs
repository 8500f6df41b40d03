//! # mlpwin-branch
//!
//! Branch prediction for the simulated core, per Table 1 of the paper:
//! a gshare direction predictor with 16 bits of global history and a
//! 64K-entry pattern history table, a 2K-set 4-way branch target buffer,
//! and a return address stack. The base misprediction penalty is 10
//! cycles; the out-of-order core adds level-dependent extra cycles for the
//! pipelined issue queue and reorder buffer (see `mlpwin-core`).
//!
//! The predictor makes *genuine* predictions: workload generators supply
//! the ground-truth outcome, the predictor guesses from its tables, and a
//! mismatch sends the simulated front end down the wrong path.
//!
//! ## Example
//!
//! ```
//! use mlpwin_branch::{BranchPredictor, PredictorConfig};
//! use mlpwin_isa::{Instruction, ArchReg};
//!
//! let mut bp = BranchPredictor::new(PredictorConfig::default());
//! let br = Instruction::cond_branch(0x400, ArchReg::int(1), true, 0x100);
//! let outcome = bp.predict(&br);
//! bp.resolve(&br, &outcome);
//! assert_eq!(bp.stats().conditional_branches, 1);
//! ```

pub mod btb;
pub mod gshare;
pub mod ras;

pub use btb::{Btb, BtbConfig};
pub use gshare::{Gshare, GshareConfig, HistoryCheckpoint};
pub use ras::ReturnAddressStack;

use mlpwin_isa::{Addr, BranchKind, Instruction};

/// Configuration of the full branch-prediction unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictorConfig {
    /// Direction predictor configuration.
    pub gshare: GshareConfig,
    /// Target buffer configuration.
    pub btb: BtbConfig,
    /// Return-address-stack depth.
    pub ras_depth: usize,
}

impl Default for PredictorConfig {
    fn default() -> PredictorConfig {
        PredictorConfig {
            gshare: GshareConfig::default(),
            btb: BtbConfig::default(),
            ras_depth: 16,
        }
    }
}

/// What the predictor said about one fetched branch, plus everything
/// needed to repair predictor state if the prediction was wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PredictionOutcome {
    /// Predicted direction (always true for unconditional transfers).
    pub pred_taken: bool,
    /// Predicted target, if the BTB/RAS produced one.
    pub pred_target: Option<Addr>,
    /// True if direction or target disagrees with ground truth — the
    /// pipeline will fetch down the wrong path until this branch resolves.
    pub mispredicted: bool,
    /// Global-history checkpoint for repair on misprediction.
    pub checkpoint: HistoryCheckpoint,
}

impl PredictionOutcome {
    /// Serializes the outcome record for a snapshot (in-flight branches
    /// in the ROB and fetch queue carry one).
    pub fn encode(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        w.put_bool(self.pred_taken);
        w.put_opt_u64(self.pred_target);
        w.put_bool(self.mispredicted);
        w.put_u32(self.checkpoint.0);
    }

    /// Decodes an outcome record from a snapshot.
    pub fn decode(
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<PredictionOutcome, mlpwin_isa::snap::SnapError> {
        Ok(PredictionOutcome {
            pred_taken: r.get_bool()?,
            pred_target: r.get_opt_u64()?,
            mispredicted: r.get_bool()?,
            checkpoint: HistoryCheckpoint(r.get_u32()?),
        })
    }
}

/// Counters maintained by the prediction unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PredictorStats {
    /// Conditional branches predicted.
    pub conditional_branches: u64,
    /// Unconditional transfers (jump/call/return) seen.
    pub unconditional_branches: u64,
    /// Direction mispredictions on conditional branches.
    pub direction_mispredicts: u64,
    /// Target mispredictions (BTB/RAS misses or wrong target).
    pub target_mispredicts: u64,
    /// BTB lookups that hit.
    pub btb_hits: u64,
    /// BTB lookups that missed.
    pub btb_misses: u64,
}

impl PredictorStats {
    /// Total mispredictions of any kind.
    pub fn total_mispredicts(&self) -> u64 {
        self.direction_mispredicts + self.target_mispredicts
    }

    /// Direction-prediction accuracy over conditional branches, in [0, 1].
    /// Returns 1.0 when no conditional branch has been seen.
    pub fn direction_accuracy(&self) -> f64 {
        if self.conditional_branches == 0 {
            1.0
        } else {
            1.0 - self.direction_mispredicts as f64 / self.conditional_branches as f64
        }
    }
}

/// The complete branch-prediction unit: gshare + BTB + RAS.
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    gshare: Gshare,
    btb: Btb,
    ras: ReturnAddressStack,
    stats: PredictorStats,
}

impl BranchPredictor {
    /// Creates a predictor from its configuration.
    pub fn new(config: PredictorConfig) -> BranchPredictor {
        BranchPredictor {
            gshare: Gshare::new(config.gshare),
            btb: Btb::new(config.btb),
            ras: ReturnAddressStack::new(config.ras_depth),
            stats: PredictorStats::default(),
        }
    }

    /// Predicts a fetched control-transfer instruction and checks the
    /// prediction against the trace's ground truth.
    ///
    /// The global history is updated *speculatively* with the prediction,
    /// as a real front end does; [`BranchPredictor::resolve`] repairs it
    /// if the branch turns out mispredicted.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a branch (callers only feed control
    /// transfers to the predictor).
    #[inline]
    pub fn predict(&mut self, inst: &Instruction) -> PredictionOutcome {
        let info = inst
            .branch
            .as_ref()
            .expect("predict() requires a branch instruction");
        match info.kind {
            BranchKind::Conditional => {
                self.stats.conditional_branches += 1;
                let (pred_taken, checkpoint) = self.gshare.predict_and_push(inst.pc);
                let pred_target = if pred_taken {
                    let t = self.btb.lookup(inst.pc);
                    if t.is_some() {
                        self.stats.btb_hits += 1;
                    } else {
                        self.stats.btb_misses += 1;
                    }
                    t
                } else {
                    None
                };
                // Direction wrong => misprediction. Direction right and
                // taken but no/incorrect target => target misprediction.
                let dir_wrong = pred_taken != info.taken;
                let target_wrong = !dir_wrong && info.taken && pred_target != Some(info.target);
                if dir_wrong {
                    self.stats.direction_mispredicts += 1;
                } else if target_wrong {
                    self.stats.target_mispredicts += 1;
                }
                PredictionOutcome {
                    pred_taken,
                    pred_target,
                    mispredicted: dir_wrong || target_wrong,
                    checkpoint,
                }
            }
            BranchKind::Unconditional | BranchKind::Call => {
                self.stats.unconditional_branches += 1;
                let pred_target = self.btb.lookup(inst.pc);
                if pred_target.is_some() {
                    self.stats.btb_hits += 1;
                } else {
                    self.stats.btb_misses += 1;
                }
                if info.kind == BranchKind::Call {
                    self.ras.push(inst.next_pc());
                }
                let mispredicted = pred_target != Some(info.target);
                if mispredicted {
                    self.stats.target_mispredicts += 1;
                }
                PredictionOutcome {
                    pred_taken: true,
                    pred_target,
                    mispredicted,
                    checkpoint: self.gshare.checkpoint(),
                }
            }
            BranchKind::Return => {
                self.stats.unconditional_branches += 1;
                let pred_target = self.ras.pop();
                let mispredicted = pred_target != Some(info.target);
                if mispredicted {
                    self.stats.target_mispredicts += 1;
                }
                PredictionOutcome {
                    pred_taken: true,
                    pred_target,
                    mispredicted,
                    checkpoint: self.gshare.checkpoint(),
                }
            }
        }
    }

    /// Resolves a branch at execute: trains the PHT and BTB with the
    /// actual outcome and repairs speculative history on misprediction.
    ///
    /// # Panics
    ///
    /// Panics if `inst` is not a branch.
    #[inline]
    pub fn resolve(&mut self, inst: &Instruction, outcome: &PredictionOutcome) {
        let info = inst
            .branch
            .as_ref()
            .expect("resolve() requires a branch instruction");
        if info.kind == BranchKind::Conditional {
            self.gshare.train(inst.pc, outcome.checkpoint, info.taken);
            if outcome.mispredicted {
                self.gshare.repair(outcome.checkpoint, info.taken);
            }
        }
        if info.taken {
            self.btb.insert(inst.pc, info.target);
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &PredictorStats {
        &self.stats
    }

    /// Resets statistics (e.g. after a warm-up phase), keeping the
    /// predictor tables trained.
    pub fn reset_stats(&mut self) {
        self.stats = PredictorStats::default();
    }

    /// Serializes the complete predictor state: trained tables, history,
    /// RAS contents, and the statistics counters.
    pub fn save_state(&self, w: &mut mlpwin_isa::snap::SnapWriter) {
        self.gshare.save_state(w);
        self.btb.save_state(w);
        self.ras.save_state(w);
        w.put_u64(self.stats.conditional_branches);
        w.put_u64(self.stats.unconditional_branches);
        w.put_u64(self.stats.direction_mispredicts);
        w.put_u64(self.stats.target_mispredicts);
        w.put_u64(self.stats.btb_hits);
        w.put_u64(self.stats.btb_misses);
    }

    /// Restores the state written by [`BranchPredictor::save_state`] into
    /// a predictor built from the same configuration.
    pub fn load_state(
        &mut self,
        r: &mut mlpwin_isa::snap::SnapReader<'_>,
    ) -> Result<(), mlpwin_isa::snap::SnapError> {
        self.gshare.load_state(r)?;
        self.btb.load_state(r)?;
        self.ras.load_state(r)?;
        self.stats.conditional_branches = r.get_u64()?;
        self.stats.unconditional_branches = r.get_u64()?;
        self.stats.direction_mispredicts = r.get_u64()?;
        self.stats.target_mispredicts = r.get_u64()?;
        self.stats.btb_hits = r.get_u64()?;
        self.stats.btb_misses = r.get_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpwin_isa::ArchReg;

    fn cond(pc: Addr, taken: bool) -> Instruction {
        Instruction::cond_branch(pc, ArchReg::int(1), taken, 0x9000)
    }

    #[test]
    fn always_taken_branch_becomes_predictable() {
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let mut late_mispredicts = 0;
        for i in 0..2000 {
            let br = cond(0x400, true);
            let o = bp.predict(&br);
            bp.resolve(&br, &o);
            if i >= 1000 && o.mispredicted {
                late_mispredicts += 1;
            }
        }
        assert_eq!(
            late_mispredicts, 0,
            "a monomorphic branch must become perfectly predicted"
        );
    }

    #[test]
    fn alternating_branch_is_learned_via_history() {
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let mut late_mispredicts = 0;
        for i in 0..4000u32 {
            let br = cond(0x800, i % 2 == 0);
            let o = bp.predict(&br);
            bp.resolve(&br, &o);
            if i >= 2000 && o.mispredicted {
                late_mispredicts += 1;
            }
        }
        // gshare captures a period-2 pattern through global history.
        assert!(
            late_mispredicts < 20,
            "alternating branch should be learned, got {late_mispredicts} late mispredicts"
        );
    }

    #[test]
    fn unconditional_jump_needs_one_btb_miss_then_hits() {
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let j = Instruction::jump(0x1000, BranchKind::Unconditional, 0x2000);
        let first = bp.predict(&j);
        assert!(first.mispredicted, "cold BTB must mispredict the target");
        bp.resolve(&j, &first);
        let second = bp.predict(&j);
        assert!(!second.mispredicted);
        assert_eq!(second.pred_target, Some(0x2000));
    }

    #[test]
    fn call_return_pair_uses_ras() {
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let call = Instruction::jump(0x1000, BranchKind::Call, 0x4000);
        let o = bp.predict(&call);
        bp.resolve(&call, &o);
        // Return to the call's fall-through (0x1004).
        let ret = Instruction::jump(0x4100, BranchKind::Return, 0x1004);
        let ro = bp.predict(&ret);
        assert!(!ro.mispredicted, "RAS should predict the return");
    }

    #[test]
    fn random_branches_mispredict_around_half() {
        use mlpwin_isa::Xoshiro256StarStar;
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let mut rng = Xoshiro256StarStar::seed_from(21);
        let mut mis = 0u32;
        let n = 20_000;
        for _ in 0..n {
            let br = cond(0xc00, rng.chance(0.5));
            let o = bp.predict(&br);
            bp.resolve(&br, &o);
            if o.mispredicted {
                mis += 1;
            }
        }
        let rate = mis as f64 / n as f64;
        assert!(
            (0.35..0.65).contains(&rate),
            "random branch mispredict rate {rate} should be near 0.5"
        );
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut bp = BranchPredictor::new(PredictorConfig::default());
        let br = cond(0x400, true);
        let o = bp.predict(&br);
        bp.resolve(&br, &o);
        assert_eq!(bp.stats().conditional_branches, 1);
        bp.reset_stats();
        assert_eq!(bp.stats().conditional_branches, 0);
    }

    #[test]
    fn accuracy_is_one_with_no_branches() {
        let s = PredictorStats::default();
        assert_eq!(s.direction_accuracy(), 1.0);
    }
}
