//! Wrong-path instruction synthesis.
//!
//! When the simulated front end mispredicts a branch it keeps fetching —
//! down the *wrong* path — until the branch resolves and the pipeline
//! squashes. The trace only describes the committed path, so wrong-path
//! instructions are synthesized deterministically from the wrong-path
//! start PC and the distance fetched down it.
//!
//! The synthesized mix (mostly ALU with a realistic sprinkling of loads
//! and stores, no further control transfers) is what gives the simulator
//! genuine wrong-path cache pollution for the Fig. 11 analysis: the loads
//! hash into a region that overlaps the workloads' data space, so some
//! wrong-path lines later turn out useful and most do not — the paper's
//! observed behaviour.

use mlpwin_isa::{Addr, ArchReg, Instruction, MemRef, OpClass, SplitMix64};

/// Span of the address region wrong-path loads fall into. It begins at
/// the workloads' data region base so wrong-path lines can collide with
/// (and occasionally service) correct-path data. The span is kept
/// cache-scale (it fits in the L2): real wrong-path loads read plausible
/// nearby program data, not uniformly random DRAM — an over-wide span
/// would monopolize the MSHRs and the memory bus with compulsory misses,
/// which the paper's Fig. 11 shows does not happen.
const WRONG_DATA_BASE: Addr = 0x1_0000_0000;
const WRONG_DATA_SPAN: Addr = 0x0008_0000; // 512 KiB

/// Deterministic wrong-path instruction synthesizer.
///
/// Stateless per query: the instruction at `(start_pc, offset)` is a pure
/// function of those values and the seed, so squashes need no rewind
/// machinery.
///
/// # Example
///
/// ```
/// use mlpwin_workloads::WrongPathGen;
/// let gen = WrongPathGen::new(7);
/// let a = gen.inst(0x5000, 0);
/// let b = gen.inst(0x5000, 0);
/// assert_eq!(a, b, "wrong-path synthesis is deterministic");
/// assert_eq!(a.pc, 0x5000);
/// assert_eq!(gen.inst(0x5000, 3).pc, 0x500c);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WrongPathGen {
    seed: u64,
}

impl WrongPathGen {
    /// Creates a synthesizer with the given seed.
    pub fn new(seed: u64) -> WrongPathGen {
        WrongPathGen { seed }
    }

    /// Synthesizes the wrong-path instruction `offset` instructions past
    /// `start_pc` (the mispredicted fetch target).
    #[inline]
    pub fn inst(&self, start_pc: Addr, offset: u64) -> Instruction {
        let pc = start_pc + 4 * offset;
        let mut h = SplitMix64::new(self.seed ^ pc.rotate_left(17));
        let roll = h.next_u64() % 100;
        // Round-robin registers derived from the offset keep wrong-path
        // dependences short and deterministic.
        let dest = ArchReg::int(1 + (offset % 26) as u8);
        let src = ArchReg::int(1 + ((offset + 13) % 26) as u8);
        if roll < 22 {
            let addr = WRONG_DATA_BASE + (h.next_u64() % (WRONG_DATA_SPAN / 8)) * 8;
            Instruction::load(pc, dest, src, MemRef::new(addr, 8))
        } else if roll < 28 {
            let addr = WRONG_DATA_BASE + (h.next_u64() % (WRONG_DATA_SPAN / 8)) * 8;
            Instruction::store(pc, dest, src, MemRef::new(addr, 8))
        } else if roll < 33 {
            Instruction::alu(pc, OpClass::IntMul, dest, &[src, dest])
        } else {
            Instruction::alu(pc, OpClass::IntAlu, dest, &[src, dest])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_position() {
        let g = WrongPathGen::new(1);
        for off in 0..100 {
            assert_eq!(g.inst(0x8000, off), g.inst(0x8000, off));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = WrongPathGen::new(1);
        let b = WrongPathGen::new(2);
        let same = (0..100)
            .filter(|&o| a.inst(0x8000, o) == b.inst(0x8000, o))
            .count();
        assert!(same < 60, "streams too similar: {same}");
    }

    #[test]
    fn pcs_are_sequential() {
        let g = WrongPathGen::new(3);
        for off in 0..50 {
            assert_eq!(g.inst(0x9000, off).pc, 0x9000 + 4 * off);
        }
    }

    #[test]
    fn mix_contains_memory_ops_but_no_branches() {
        let g = WrongPathGen::new(5);
        let insts: Vec<_> = (0..2000).map(|o| g.inst(0x7000, o)).collect();
        let loads = insts.iter().filter(|i| i.op == OpClass::Load).count();
        let branches = insts.iter().filter(|i| i.op.is_branch()).count();
        assert!(loads > 200, "expected ~22% loads, got {loads}");
        assert_eq!(branches, 0);
        for i in &insts {
            i.validate().unwrap();
        }
    }

    #[test]
    fn loads_fall_in_the_shared_data_region() {
        let g = WrongPathGen::new(9);
        for off in 0..500 {
            if let Some(m) = &g.inst(0x7000, off).mem {
                assert!(m.addr >= WRONG_DATA_BASE);
                assert!(m.addr < WRONG_DATA_BASE + WRONG_DATA_SPAN);
            }
        }
    }
}
