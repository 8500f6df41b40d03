//! The dynamic instruction-stream generator.
//!
//! A [`ProfileWorkload`] walks the static bodies of its phases, turning
//! slots into dynamic [`Instruction`]s: drawing branch outcomes from each
//! slot's bias, generating load/store addresses from the phase's
//! [`MemPattern`], and keeping the committed path PC-consistent (every
//! instruction's `successor_pc()` equals the next instruction's `pc`,
//! including across loop iterations and phase changes, which are stitched
//! with unconditional jumps).

use crate::body::{SlotKind, StaticBody, StaticSlot};
use crate::params::{MemPattern, ProfileParams};
use crate::Workload;
use mlpwin_isa::snap::{SnapError, SnapReader, SnapWriter};
use mlpwin_isa::{Addr, ArchReg, BranchKind, Instruction, MemRef, Xoshiro256StarStar};

/// Base address of the synthetic code region.
const CODE_REGION: Addr = 0x0040_0000;
/// Bytes between per-phase code regions.
const CODE_STRIDE: Addr = 0x0001_0000;
/// Base address of the synthetic data region.
const DATA_REGION: Addr = 0x1_0000_0000;
/// Bytes between per-phase data regions.
const DATA_STRIDE: Addr = 0x1000_0000;
/// Size of the hot (cache-resident) subset used by reuse draws.
const HOT_REGION: u64 = 128 * 1024;

#[derive(Debug, Clone)]
struct PhaseState {
    body: StaticBody,
    code_base: Addr,
    data_base: Addr,
    load_cursor: u64,
    store_cursor: u64,
    burst_left: u32,
    burst_base: u64,
    load_chunk: (u64, u32),
    store_chunk: (u64, u32),
}

/// A deterministic workload generated from a [`ProfileParams`].
#[derive(Debug, Clone)]
pub struct ProfileWorkload {
    params: ProfileParams,
    phases: Vec<PhaseState>,
    phase_idx: usize,
    phase_insts_left: u64,
    slot_idx: usize,
    rng: Xoshiro256StarStar,
}

impl ProfileWorkload {
    /// Builds the workload; all phase bodies are compiled up front, so
    /// construction cost is paid once.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid phase parameter.
    pub fn new(params: ProfileParams, seed: u64) -> Result<ProfileWorkload, String> {
        params.validate()?;
        let phases = params
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| PhaseState {
                body: StaticBody::compile(p, seed ^ (0x9E37_79B9u64 * (i as u64 + 1))),
                code_base: CODE_REGION + CODE_STRIDE * i as Addr,
                data_base: DATA_REGION + DATA_STRIDE * i as Addr,
                load_cursor: 0,
                store_cursor: 0,
                burst_left: 0,
                burst_base: 0,
                load_chunk: (0, 0),
                store_chunk: (0, 0),
            })
            .collect();
        let first_len = params.phases[0].len;
        Ok(ProfileWorkload {
            params,
            phases,
            phase_idx: 0,
            phase_insts_left: first_len,
            slot_idx: 0,
            rng: Xoshiro256StarStar::seed_from(seed),
        })
    }

    /// The profile this workload was built from.
    pub fn params(&self) -> &ProfileParams {
        &self.params
    }

    #[inline]
    fn pc(&self) -> Addr {
        self.phases[self.phase_idx].code_base + 4 * self.slot_idx as Addr
    }

    /// Draws the next data address for a load or store in the current
    /// phase. `is_store` selects the independent store cursor.
    #[inline]
    fn next_addr(&mut self, is_store: bool, chase: bool) -> Addr {
        let pattern = self.params.phases[self.phase_idx].pattern;
        let ws = self.params.phases[self.phase_idx].working_set;
        let st = &mut self.phases[self.phase_idx];
        // Stores live in their own region (the upper half of the phase's
        // address space): programs rarely stream stores over the exact
        // addresses of in-flight loads, and cursor aliasing would create
        // artificial store-to-load blocking storms.
        let base = if is_store {
            st.data_base + ws.div_ceil(64) * 64
        } else {
            st.data_base
        };
        let reuse_frac = match pattern {
            MemPattern::RandomChunk { reuse, .. } => reuse,
            _ => 0.0,
        };
        if chase {
            // Chase targets are random; the *serialization* comes from
            // the register dependence. Reuse applies so chase-heavy
            // profiles can still exhibit temporal locality.
            let hot = ws.min(HOT_REGION);
            return if self.rng.chance(reuse_frac) {
                base + self.rng.range(hot / 8) * 8
            } else {
                base + self.rng.range(ws / 8) * 8
            };
        }
        match pattern {
            MemPattern::Stream { stride } => {
                let cursor = if is_store {
                    &mut st.store_cursor
                } else {
                    &mut st.load_cursor
                };
                let a = base + (*cursor % ws);
                *cursor += stride;
                a
            }
            MemPattern::Random => base + self.rng.range(ws / 8) * 8,
            MemPattern::BurstyRandom { burst, region } => {
                if st.burst_left == 0 {
                    st.burst_left = burst;
                    st.burst_base = self.rng.range((ws - region).max(8) / 8) * 8;
                }
                st.burst_left -= 1;
                let b = st.burst_base;
                base + b + self.rng.range(region / 8) * 8
            }
            MemPattern::RandomChunk { run, reuse } => {
                let chunk = if is_store {
                    &mut st.store_chunk
                } else {
                    &mut st.load_chunk
                };
                if chunk.1 == 0 {
                    chunk.1 = run;
                    let hot = ws.min(HOT_REGION);
                    chunk.0 = if self.rng.chance(reuse) {
                        self.rng.range(hot / 64) * 64
                    } else {
                        self.rng.range(ws / 64) * 64
                    };
                }
                let offset = (run - chunk.1) as u64 * 8;
                chunk.1 -= 1;
                base + chunk.0 + offset
            }
        }
    }

    /// Moves to the next phase, emitting the stitching jump from `pc`.
    fn phase_jump(&mut self, pc: Addr) -> Instruction {
        self.phase_idx = (self.phase_idx + 1) % self.phases.len();
        self.phase_insts_left = self.params.phases[self.phase_idx].len;
        self.slot_idx = 0;
        Instruction::jump(pc, BranchKind::Unconditional, self.pc())
    }

    #[inline]
    fn emit_slot(&mut self, slot: StaticSlot, pc: Addr) -> Instruction {
        match slot.kind {
            SlotKind::Alu(op) => {
                self.slot_idx += 1;
                // Stack-packed source list: this runs once per generated
                // ALU instruction, so a heap Vec here dominates the
                // generator's cost.
                let packed;
                let srcs: &[ArchReg] = match (slot.srcs[0], slot.srcs[1]) {
                    (Some(a), Some(b)) => {
                        packed = [a, b];
                        &packed
                    }
                    (Some(a), None) | (None, Some(a)) => {
                        packed = [a, a];
                        &packed[..1]
                    }
                    (None, None) => &[],
                };
                Instruction::alu(pc, op, slot.dest.expect("alu writes a register"), srcs)
            }
            SlotKind::Load { chase } => {
                self.slot_idx += 1;
                let addr = self.next_addr(false, chase);
                Instruction::load(
                    pc,
                    slot.dest.expect("load writes a register"),
                    slot.srcs[0].expect("load has a base register"),
                    MemRef::new(addr, 8),
                )
            }
            SlotKind::Store => {
                self.slot_idx += 1;
                let addr = self.next_addr(true, false);
                Instruction::store(
                    pc,
                    slot.srcs[0].expect("store has a data register"),
                    slot.srcs[1].expect("store has a base register"),
                    MemRef::new(addr, 8),
                )
            }
            SlotKind::CondBranch { taken_bias, skip } => {
                let body_len = self.phases[self.phase_idx].body.len();
                let taken = self.rng.chance(taken_bias);
                // Clamp the skip so the target stays inside the body.
                let target_idx = (self.slot_idx + 1 + skip as usize).min(body_len - 1);
                let target = self.phases[self.phase_idx].code_base + 4 * target_idx as Addr;
                self.slot_idx = if taken { target_idx } else { self.slot_idx + 1 };
                Instruction::cond_branch(
                    pc,
                    slot.srcs[0].expect("branch has a condition register"),
                    taken,
                    target,
                )
            }
            SlotKind::LoopBack => {
                let target = self.phases[self.phase_idx].code_base;
                self.slot_idx = 0;
                Instruction::jump(pc, BranchKind::Unconditional, target)
            }
        }
    }
}

impl Workload for ProfileWorkload {
    fn name(&self) -> &str {
        self.params.name
    }

    #[inline]
    fn next_inst(&mut self) -> Instruction {
        let pc = self.pc();
        if self.phase_insts_left == 0 && self.phases.len() > 1 {
            return self.phase_jump(pc);
        }
        self.phase_insts_left = self.phase_insts_left.saturating_sub(1);
        let slot = self.phases[self.phase_idx].body.slots[self.slot_idx].clone();
        self.emit_slot(slot, pc)
    }

    fn save_state(&self, w: &mut SnapWriter) {
        // Compiled bodies and code/data bases are pure functions of the
        // construction parameters; only cursors and the RNG travel.
        w.put_usize(self.phases.len());
        for p in &self.phases {
            w.put_u64(p.load_cursor);
            w.put_u64(p.store_cursor);
            w.put_u32(p.burst_left);
            w.put_u64(p.burst_base);
            w.put_u64(p.load_chunk.0);
            w.put_u32(p.load_chunk.1);
            w.put_u64(p.store_chunk.0);
            w.put_u32(p.store_chunk.1);
        }
        w.put_usize(self.phase_idx);
        w.put_u64(self.phase_insts_left);
        w.put_usize(self.slot_idx);
        self.rng.save_state(w);
    }

    fn load_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let n = r.get_usize()?;
        if n != self.phases.len() {
            return Err(SnapError::Mismatch {
                what: "profile phase count",
            });
        }
        for p in &mut self.phases {
            p.load_cursor = r.get_u64()?;
            p.store_cursor = r.get_u64()?;
            p.burst_left = r.get_u32()?;
            p.burst_base = r.get_u64()?;
            p.load_chunk = (r.get_u64()?, r.get_u32()?);
            p.store_chunk = (r.get_u64()?, r.get_u32()?);
        }
        let phase_idx = r.get_usize()?;
        if phase_idx >= self.phases.len() {
            return Err(SnapError::Mismatch {
                what: "profile phase index",
            });
        }
        self.phase_idx = phase_idx;
        self.phase_insts_left = r.get_u64()?;
        let slot_idx = r.get_usize()?;
        if slot_idx >= self.phases[self.phase_idx].body.len() {
            return Err(SnapError::Mismatch {
                what: "profile slot index",
            });
        }
        self.slot_idx = slot_idx;
        self.rng.load_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{Category, PhaseParams};

    fn single_phase(p: PhaseParams) -> ProfileWorkload {
        ProfileWorkload::new(
            ProfileParams {
                name: "test",
                category: Category::ComputeIntensive,
                is_fp: false,
                phases: vec![p],
            },
            1,
        )
        .unwrap()
    }

    #[test]
    fn stream_is_pc_consistent() {
        let mut w = single_phase(PhaseParams::default());
        let mut prev = w.next_inst();
        for _ in 0..20_000 {
            let next = w.next_inst();
            assert_eq!(prev.successor_pc(), next.pc, "PC chain broken after {prev}");
            prev = next;
        }
    }

    #[test]
    fn stream_is_deterministic() {
        let mut a = single_phase(PhaseParams::default());
        let mut b = single_phase(PhaseParams::default());
        for _ in 0..5000 {
            assert_eq!(a.next_inst(), b.next_inst());
        }
    }

    #[test]
    fn all_instructions_validate() {
        let mut w = single_phase(PhaseParams {
            fp_frac: 0.4,
            chase_frac: 0.3,
            ..PhaseParams::default()
        });
        for _ in 0..10_000 {
            w.next_inst().validate().unwrap();
        }
    }

    #[test]
    fn phase_transitions_are_stitched_with_jumps() {
        let mut w = ProfileWorkload::new(
            ProfileParams {
                name: "two-phase",
                category: Category::MemoryIntensive,
                is_fp: false,
                phases: vec![
                    PhaseParams {
                        len: 1000,
                        ..PhaseParams::default()
                    },
                    PhaseParams {
                        len: 1000,
                        working_set: 64 * 1024 * 1024,
                        pattern: MemPattern::Random,
                        ..PhaseParams::default()
                    },
                ],
            },
            3,
        )
        .unwrap();
        let mut prev = w.next_inst();
        let mut phase_jumps = 0;
        for _ in 0..10_000 {
            let next = w.next_inst();
            assert_eq!(prev.successor_pc(), next.pc);
            // A jump between code regions signals a phase change.
            if let Some(b) = &prev.branch {
                if b.taken && (b.target / CODE_STRIDE) != (prev.pc / CODE_STRIDE) {
                    phase_jumps += 1;
                }
            }
            prev = next;
        }
        assert!(
            phase_jumps >= 4,
            "expected several phase changes, got {phase_jumps}"
        );
    }

    #[test]
    fn stream_pattern_walks_sequentially() {
        let mut w = single_phase(PhaseParams {
            load_frac: 0.5,
            store_frac: 0.0,
            branch_frac: 0.0,
            chase_frac: 0.0,
            pattern: MemPattern::Stream { stride: 8 },
            ..PhaseParams::default()
        });
        let mut addrs = Vec::new();
        for _ in 0..2000 {
            let i = w.next_inst();
            if let Some(m) = &i.mem {
                addrs.push(m.addr);
            }
        }
        assert!(addrs.len() > 100);
        assert!(
            addrs.windows(2).all(|w| w[1] == w[0] + 8),
            "stream must be strictly sequential"
        );
    }

    #[test]
    fn random_pattern_stays_in_working_set() {
        let ws = 1 << 20;
        let mut w = single_phase(PhaseParams {
            load_frac: 0.5,
            working_set: ws,
            pattern: MemPattern::Random,
            ..PhaseParams::default()
        });
        for _ in 0..5000 {
            let i = w.next_inst();
            if let Some(m) = &i.mem {
                if i.op == mlpwin_isa::OpClass::Store {
                    // Stores live in their own region above the loads'.
                    assert!(m.addr >= DATA_REGION + ws && m.addr < DATA_REGION + 2 * ws + 64);
                } else {
                    assert!(m.addr >= DATA_REGION && m.addr < DATA_REGION + ws);
                }
            }
        }
    }

    #[test]
    fn bursty_pattern_produces_local_runs() {
        let mut w = single_phase(PhaseParams {
            load_frac: 0.5,
            store_frac: 0.0,
            working_set: 256 << 20,
            pattern: MemPattern::BurstyRandom {
                burst: 16,
                region: 4096,
            },
            ..PhaseParams::default()
        });
        let mut addrs = Vec::new();
        for _ in 0..3000 {
            let i = w.next_inst();
            if let Some(m) = &i.mem {
                addrs.push(m.addr);
            }
        }
        // Within a burst, consecutive addresses are within the region.
        let close = addrs
            .windows(2)
            .filter(|w| w[0].abs_diff(w[1]) < 4096)
            .count();
        assert!(
            close * 2 > addrs.len(),
            "bursty pattern should mostly stay local: {close}/{}",
            addrs.len()
        );
    }

    #[test]
    fn branch_outcomes_follow_bias() {
        let mut w = single_phase(PhaseParams {
            branch_frac: 0.3,
            branch_bias: 0.9,
            ..PhaseParams::default()
        });
        let (mut taken, mut total) = (0u32, 0u32);
        for _ in 0..50_000 {
            let i = w.next_inst();
            if let Some(b) = &i.branch {
                if b.kind == BranchKind::Conditional {
                    total += 1;
                    taken += b.taken as u32;
                }
            }
        }
        let rate = taken as f64 / total as f64;
        assert!((0.85..0.95).contains(&rate), "taken rate {rate}");
    }

    #[test]
    fn workload_name_round_trips() {
        let w = single_phase(PhaseParams::default());
        assert_eq!(w.name(), "test");
    }
}
