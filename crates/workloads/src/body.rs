//! Static loop bodies.
//!
//! A phase compiles its [`PhaseParams`] into a fixed sequence of
//! *static slots* — the synthetic program's loop body.
//! The dynamic stream is produced by walking the body repeatedly, so each
//! slot behaves like a static instruction: a stable PC, stable operand
//! registers, and stable behavioural class. This is what lets the real
//! gshare/BTB predictors learn the synthetic program the way they would
//! learn a compiled loop.
//!
//! ## Register discipline
//!
//! - `r27` is the induction variable: slot 0 of every body is
//!   `r27 <- r27 + 1`. Non-chasing loads and stores use `r27` as their
//!   base register, so their addresses are ready almost immediately —
//!   they expose MLP to a large window.
//! - `r28` is the pointer-chase register: a chase load is
//!   `r28 <- [r28]`, serializing chase misses regardless of window size.
//! - `r0`/`f31` act as always-ready constants for slots that cannot find
//!   a producer within their dependence window.
//! - All other destinations round-robin over `r1..=r26` / `f0..=f26`.

use crate::params::PhaseParams;
use mlpwin_isa::{ArchReg, OpClass, Xoshiro256StarStar};

/// The induction register (base of non-chasing memory accesses).
pub const INDUCTION_REG: u8 = 27;
/// The pointer-chase chain register.
pub const CHASE_REG: u8 = 28;

/// Behavioural class of a static slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SlotKind {
    /// Plain computation.
    Alu(OpClass),
    /// A load; `chase` loads feed their own next address.
    Load {
        /// Whether this is a pointer-chasing load.
        chase: bool,
    },
    /// A store.
    Store,
    /// A conditional branch; when taken it skips `skip` following slots.
    CondBranch {
        /// Probability the branch goes in its biased direction (taken).
        taken_bias: f64,
        /// Slots skipped when taken (at least 1).
        skip: u8,
    },
    /// The terminal unconditional jump back to slot 0.
    LoopBack,
}

/// One static instruction slot of a loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticSlot {
    /// Behavioural class.
    pub kind: SlotKind,
    /// Destination register, if any.
    pub dest: Option<ArchReg>,
    /// Source registers.
    pub srcs: [Option<ArchReg>; 2],
}

/// A compiled loop body.
#[derive(Debug, Clone, PartialEq)]
pub struct StaticBody {
    /// The slots; the last is always [`SlotKind::LoopBack`].
    pub slots: Vec<StaticSlot>,
}

impl StaticBody {
    /// Compiles a phase into its static body, deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (call
    /// [`PhaseParams::validate`] first at the API boundary).
    pub fn compile(params: &PhaseParams, seed: u64) -> StaticBody {
        params.validate().expect("invalid phase parameters");
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = params.body_len;
        let mut slots: Vec<StaticSlot> = Vec::with_capacity(n + 2);

        // Slot 0: the induction update r27 <- r27 (always present).
        slots.push(StaticSlot {
            kind: SlotKind::Alu(OpClass::IntAlu),
            dest: Some(ArchReg::int(INDUCTION_REG)),
            srcs: [Some(ArchReg::int(INDUCTION_REG)), None],
        });

        let mut int_rr: u8 = 1; // round-robin over r1..=r26
        let mut fp_rr: u8 = 0; // round-robin over f0..=f26
        for i in 1..n {
            let kind = Self::draw_kind(params, &mut rng);
            let slot = Self::build_slot(kind, i, &slots, params, &mut rng, &mut int_rr, &mut fp_rr);
            slots.push(slot);
        }

        // Terminal loop-back jump.
        slots.push(StaticSlot {
            kind: SlotKind::LoopBack,
            dest: None,
            srcs: [None, None],
        });
        StaticBody { slots }
    }

    fn draw_kind(params: &PhaseParams, rng: &mut Xoshiro256StarStar) -> SlotKind {
        let r = rng.unit_f64();
        if r < params.load_frac {
            SlotKind::Load {
                chase: rng.chance(params.chase_frac),
            }
        } else if r < params.load_frac + params.store_frac {
            SlotKind::Store
        } else if r < params.load_frac + params.store_frac + params.branch_frac {
            SlotKind::CondBranch {
                taken_bias: params.branch_bias,
                skip: 1 + rng.range(3) as u8,
            }
        } else {
            let fp = rng.chance(params.fp_frac);
            let long = rng.chance(params.longlat_frac);
            let op = match (fp, long) {
                (false, false) => OpClass::IntAlu,
                (false, true) => {
                    if rng.chance(0.8) {
                        OpClass::IntMul
                    } else {
                        OpClass::IntDiv
                    }
                }
                (true, false) => {
                    if rng.chance(0.6) {
                        OpClass::FpAlu
                    } else {
                        OpClass::FpMul
                    }
                }
                (true, true) => {
                    if rng.chance(0.7) {
                        OpClass::FpDiv
                    } else {
                        OpClass::FpSqrt
                    }
                }
            };
            SlotKind::Alu(op)
        }
    }

    /// Finds a producer register among the previous `dep_depth` slots
    /// whose destination class (int/fp) matches `want_fp`.
    fn pick_source(
        slots: &[StaticSlot],
        at: usize,
        dep_depth: usize,
        want_fp: bool,
        rng: &mut Xoshiro256StarStar,
    ) -> ArchReg {
        let lo = at.saturating_sub(dep_depth);
        let candidates: Vec<ArchReg> = slots[lo..at]
            .iter()
            .filter_map(|s| s.dest)
            .filter(|d| d.is_fp() == want_fp)
            .collect();
        if candidates.is_empty() {
            // Always-ready constant register.
            if want_fp {
                ArchReg::fp(31)
            } else {
                ArchReg::int(0)
            }
        } else {
            candidates[rng.range(candidates.len() as u64) as usize]
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn build_slot(
        kind: SlotKind,
        i: usize,
        slots: &[StaticSlot],
        params: &PhaseParams,
        rng: &mut Xoshiro256StarStar,
        int_rr: &mut u8,
        fp_rr: &mut u8,
    ) -> StaticSlot {
        let next_int = |rr: &mut u8| {
            let r = ArchReg::int(1 + *rr % 26);
            *rr = (*rr + 1) % 26;
            r
        };
        let next_fp = |rr: &mut u8| {
            let r = ArchReg::fp(*rr % 27);
            *rr = (*rr + 1) % 27;
            r
        };
        match kind {
            SlotKind::Alu(op) => {
                let fp = op.is_fp();
                let dest = if fp { next_fp(fp_rr) } else { next_int(int_rr) };
                let s0 = Self::pick_source(slots, i, params.dep_depth, fp, rng);
                let s1 = Self::pick_source(slots, i, params.dep_depth, fp, rng);
                StaticSlot {
                    kind,
                    dest: Some(dest),
                    srcs: [Some(s0), Some(s1)],
                }
            }
            SlotKind::Load { chase } => {
                if chase {
                    StaticSlot {
                        kind,
                        dest: Some(ArchReg::int(CHASE_REG)),
                        srcs: [Some(ArchReg::int(CHASE_REG)), None],
                    }
                } else {
                    // FP profiles load into FP registers with probability
                    // fp_frac so FP consumers have producers.
                    let fp = rng.chance(params.fp_frac);
                    let dest = if fp { next_fp(fp_rr) } else { next_int(int_rr) };
                    StaticSlot {
                        kind,
                        dest: Some(dest),
                        srcs: [Some(ArchReg::int(INDUCTION_REG)), None],
                    }
                }
            }
            SlotKind::Store => {
                let data = Self::pick_source(slots, i, params.dep_depth, false, rng);
                StaticSlot {
                    kind,
                    dest: None,
                    srcs: [Some(data), Some(ArchReg::int(INDUCTION_REG))],
                }
            }
            SlotKind::CondBranch { .. } => {
                let cond = Self::pick_source(slots, i, params.dep_depth, false, rng);
                StaticSlot {
                    kind,
                    dest: None,
                    srcs: [Some(cond), None],
                }
            }
            SlotKind::LoopBack => StaticSlot {
                kind,
                dest: None,
                srcs: [None, None],
            },
        }
    }

    /// Number of slots, including the loop-back jump.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// A body is never empty (it always has induction + loop-back).
    pub fn is_empty(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::MemPattern;

    fn body(params: &PhaseParams) -> StaticBody {
        StaticBody::compile(params, 42)
    }

    #[test]
    fn compile_is_deterministic() {
        let p = PhaseParams::default();
        assert_eq!(StaticBody::compile(&p, 7), StaticBody::compile(&p, 7));
        assert_ne!(StaticBody::compile(&p, 7), StaticBody::compile(&p, 8));
    }

    #[test]
    fn body_starts_with_induction_and_ends_with_loopback() {
        let b = body(&PhaseParams::default());
        assert_eq!(b.slots[0].dest, Some(ArchReg::int(INDUCTION_REG)));
        assert_eq!(b.slots.last().unwrap().kind, SlotKind::LoopBack);
        assert_eq!(b.len(), PhaseParams::default().body_len + 1);
    }

    #[test]
    fn slot_mix_tracks_fractions() {
        let p = PhaseParams {
            body_len: 2000,
            load_frac: 0.3,
            store_frac: 0.1,
            branch_frac: 0.1,
            ..PhaseParams::default()
        };
        let b = body(&p);
        let loads = b
            .slots
            .iter()
            .filter(|s| matches!(s.kind, SlotKind::Load { .. }))
            .count();
        let stores = b
            .slots
            .iter()
            .filter(|s| matches!(s.kind, SlotKind::Store))
            .count();
        let branches = b
            .slots
            .iter()
            .filter(|s| matches!(s.kind, SlotKind::CondBranch { .. }))
            .count();
        assert!((450..750).contains(&loads), "loads {loads}");
        assert!((120..280).contains(&stores), "stores {stores}");
        assert!((120..280).contains(&branches), "branches {branches}");
    }

    #[test]
    fn chase_loads_use_the_chain_register() {
        let p = PhaseParams {
            body_len: 500,
            load_frac: 0.4,
            chase_frac: 1.0,
            ..PhaseParams::default()
        };
        let b = body(&p);
        for s in &b.slots {
            if let SlotKind::Load { chase } = s.kind {
                assert!(chase);
                assert_eq!(s.dest, Some(ArchReg::int(CHASE_REG)));
                assert_eq!(s.srcs[0], Some(ArchReg::int(CHASE_REG)));
            }
        }
    }

    #[test]
    fn noncbase_loads_use_the_induction_register() {
        let p = PhaseParams {
            chase_frac: 0.0,
            ..PhaseParams::default()
        };
        let b = body(&p);
        for s in &b.slots {
            if matches!(s.kind, SlotKind::Load { .. }) {
                assert_eq!(s.srcs[0], Some(ArchReg::int(INDUCTION_REG)));
            }
        }
    }

    #[test]
    fn sources_stay_within_dependence_window_or_constants() {
        let p = PhaseParams {
            dep_depth: 3,
            ..PhaseParams::default()
        };
        let b = body(&p);
        for (i, s) in b.slots.iter().enumerate() {
            if let SlotKind::Alu(_) = s.kind {
                for src in s.srcs.iter().flatten() {
                    if src.index() == 0 || *src == ArchReg::fp(31) {
                        continue; // constant registers
                    }
                    if src.class_index() == INDUCTION_REG || src.class_index() == CHASE_REG {
                        continue;
                    }
                    let lo = i.saturating_sub(3);
                    let produced_nearby = b.slots[lo..i].iter().any(|t| t.dest == Some(*src));
                    assert!(
                        produced_nearby,
                        "slot {i} source {src} not produced in window"
                    );
                }
            }
        }
    }

    #[test]
    fn fp_profile_contains_fp_ops() {
        let p = PhaseParams {
            fp_frac: 0.8,
            body_len: 500,
            pattern: MemPattern::Random,
            ..PhaseParams::default()
        };
        let b = body(&p);
        let fp_ops = b
            .slots
            .iter()
            .filter(|s| matches!(s.kind, SlotKind::Alu(op) if op.is_fp()))
            .count();
        assert!(fp_ops > 100, "fp ops {fp_ops}");
    }
}
