//! The trace-record instruction format.
//!
//! An [`Instruction`] is one element of the dynamic instruction stream a
//! workload generator produces. It is a *timing* record: it names the
//! registers that create dependences, the memory address a load/store
//! touches, and the actual outcome of a branch — but carries no data
//! values, because the timing model never needs them.

use crate::op::OpClass;
use crate::reg::ArchReg;
use crate::snap::{SnapError, SnapReader, SnapWriter};
use crate::Addr;
use std::fmt;

/// A memory reference made by a load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRef {
    /// Byte address of the access.
    pub addr: Addr,
    /// Access size in bytes (1, 2, 4, or 8).
    pub size: u8,
}

impl MemRef {
    /// Creates a memory reference.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not one of 1, 2, 4, 8.
    #[inline]
    pub fn new(addr: Addr, size: u8) -> MemRef {
        assert!(
            matches!(size, 1 | 2 | 4 | 8),
            "unsupported access size {size}"
        );
        MemRef { addr, size }
    }

    /// True if the two references touch at least one common byte.
    #[inline]
    pub fn overlaps(&self, other: &MemRef) -> bool {
        let a0 = self.addr;
        let a1 = self.addr + self.size as Addr;
        let b0 = other.addr;
        let b1 = other.addr + other.size as Addr;
        a0 < b1 && b0 < a1
    }
}

/// The static kind of a control-transfer instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchKind {
    /// Conditional direct branch — predicted by the direction predictor.
    Conditional,
    /// Unconditional direct jump — needs only a BTB hit.
    Unconditional,
    /// Function call — pushes the return address on the RAS.
    Call,
    /// Function return — predicted by the RAS.
    Return,
}

/// Ground-truth outcome of a branch, supplied by the workload generator.
///
/// The branch predictor makes a genuine prediction at fetch; comparing it
/// with this record decides whether the pipeline goes down the wrong path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchInfo {
    /// Whether the branch is actually taken.
    pub taken: bool,
    /// Actual target when taken.
    pub target: Addr,
    /// Static branch kind.
    pub kind: BranchKind,
}

/// One dynamic instruction of the simulated program.
///
/// Constructed by workload generators via the helper constructors
/// ([`Instruction::alu`], [`Instruction::load`], …) and consumed by the
/// out-of-order core.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Instruction {
    /// Program counter (instruction addresses are 4-byte aligned).
    pub pc: Addr,
    /// Operation class.
    pub op: OpClass,
    /// Source registers (up to two).
    pub srcs: [Option<ArchReg>; 2],
    /// Destination register, if the op writes one.
    pub dest: Option<ArchReg>,
    /// Memory reference for loads and stores.
    pub mem: Option<MemRef>,
    /// Ground-truth branch outcome for control transfers.
    pub branch: Option<BranchInfo>,
}

impl Instruction {
    /// Creates a register-to-register operation.
    ///
    /// # Panics
    ///
    /// Panics if `op` is a memory or branch class, or if more than two
    /// sources are given.
    #[inline]
    pub fn alu(pc: Addr, op: OpClass, dest: ArchReg, srcs: &[ArchReg]) -> Instruction {
        assert!(!op.is_mem() && !op.is_branch(), "alu() given {op}");
        assert!(srcs.len() <= 2, "at most two source registers");
        let mut s = [None, None];
        for (i, r) in srcs.iter().enumerate() {
            s[i] = Some(*r);
        }
        Instruction {
            pc,
            op,
            srcs: s,
            dest: Some(dest),
            mem: None,
            branch: None,
        }
    }

    /// Creates a load: `dest = mem[base + imm]` (the base register is the
    /// single source; the address is precomputed by the generator).
    #[inline]
    pub fn load(pc: Addr, dest: ArchReg, base: ArchReg, mem: MemRef) -> Instruction {
        Instruction {
            pc,
            op: OpClass::Load,
            srcs: [Some(base), None],
            dest: Some(dest),
            mem: Some(mem),
            branch: None,
        }
    }

    /// Creates a store: `mem[base + imm] = data`.
    #[inline]
    pub fn store(pc: Addr, data: ArchReg, base: ArchReg, mem: MemRef) -> Instruction {
        Instruction {
            pc,
            op: OpClass::Store,
            srcs: [Some(data), Some(base)],
            dest: None,
            mem: Some(mem),
            branch: None,
        }
    }

    /// Creates a conditional branch that tests `cond`.
    #[inline]
    pub fn cond_branch(pc: Addr, cond: ArchReg, taken: bool, target: Addr) -> Instruction {
        Instruction {
            pc,
            op: OpClass::CondBranch,
            srcs: [Some(cond), None],
            dest: None,
            mem: None,
            branch: Some(BranchInfo {
                taken,
                target,
                kind: BranchKind::Conditional,
            }),
        }
    }

    /// Creates an unconditional jump, call, or return.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is [`BranchKind::Conditional`]; use
    /// [`Instruction::cond_branch`] for those.
    #[inline]
    pub fn jump(pc: Addr, kind: BranchKind, target: Addr) -> Instruction {
        assert!(
            kind != BranchKind::Conditional,
            "use cond_branch for conditional branches"
        );
        Instruction {
            pc,
            op: OpClass::Jump,
            srcs: [None, None],
            dest: None,
            mem: None,
            branch: Some(BranchInfo {
                taken: true,
                target,
                kind,
            }),
        }
    }

    /// Creates a no-operation.
    pub fn nop(pc: Addr) -> Instruction {
        Instruction {
            pc,
            op: OpClass::Nop,
            srcs: [None, None],
            dest: None,
            mem: None,
            branch: None,
        }
    }

    /// True if the instruction writes an architectural register.
    #[inline]
    pub fn writes_register(&self) -> bool {
        self.dest.is_some()
    }

    /// Iterator over the present source registers.
    pub fn sources(&self) -> impl Iterator<Item = ArchReg> + '_ {
        self.srcs.iter().flatten().copied()
    }

    /// The fall-through PC (next sequential instruction).
    #[inline]
    pub fn next_pc(&self) -> Addr {
        self.pc + 4
    }

    /// The PC the committed-path stream continues at after this
    /// instruction: the branch target for taken branches, else
    /// fall-through.
    #[inline]
    pub fn successor_pc(&self) -> Addr {
        match &self.branch {
            Some(b) if b.taken => b.target,
            _ => self.next_pc(),
        }
    }

    /// Serializes the instruction record for a snapshot.
    pub fn encode(&self, w: &mut SnapWriter) {
        w.put_u64(self.pc);
        w.put_u8(op_tag(self.op));
        for s in &self.srcs {
            w.put_opt(s.as_ref(), |w, r| w.put_u8(r.index() as u8));
        }
        w.put_opt(self.dest.as_ref(), |w, r| w.put_u8(r.index() as u8));
        w.put_opt(self.mem.as_ref(), |w, m| {
            w.put_u64(m.addr);
            w.put_u8(m.size);
        });
        w.put_opt(self.branch.as_ref(), |w, b| {
            w.put_bool(b.taken);
            w.put_u64(b.target);
            w.put_u8(branch_kind_tag(b.kind));
        });
    }

    /// Decodes an instruction record from a snapshot.
    pub fn decode(r: &mut SnapReader<'_>) -> Result<Instruction, SnapError> {
        let pc = r.get_u64()?;
        let op = op_from_tag(r)?;
        let mut srcs = [None, None];
        for s in &mut srcs {
            *s = r.get_opt(decode_reg)?;
        }
        let dest = r.get_opt(decode_reg)?;
        let mem = r.get_opt(|r| {
            let addr = r.get_u64()?;
            let offset = r.offset();
            let size = r.get_u8()?;
            if !matches!(size, 1 | 2 | 4 | 8) {
                return Err(SnapError::BadTag {
                    offset,
                    tag: size,
                    what: "mem size",
                });
            }
            Ok(MemRef { addr, size })
        })?;
        let branch = r.get_opt(|r| {
            let taken = r.get_bool()?;
            let target = r.get_u64()?;
            let kind = branch_kind_from_tag(r)?;
            Ok(BranchInfo {
                taken,
                target,
                kind,
            })
        })?;
        Ok(Instruction {
            pc,
            op,
            srcs,
            dest,
            mem,
            branch,
        })
    }

    /// Checks internal consistency (memory ops have a `mem`, branches have
    /// a `branch`, and vice versa). Generators call this in debug builds.
    pub fn validate(&self) -> Result<(), String> {
        if self.op.is_mem() != self.mem.is_some() {
            return Err(format!("{self}: mem field inconsistent with op class"));
        }
        if self.op.is_branch() != self.branch.is_some() {
            return Err(format!("{self}: branch field inconsistent with op class"));
        }
        if self.op == OpClass::Store && self.dest.is_some() {
            return Err(format!("{self}: store must not write a register"));
        }
        if !self.pc.is_multiple_of(4) {
            return Err(format!("{self}: pc not 4-byte aligned"));
        }
        Ok(())
    }
}

fn op_tag(op: OpClass) -> u8 {
    OpClass::ALL.iter().position(|&o| o == op).unwrap() as u8
}

fn op_from_tag(r: &mut SnapReader<'_>) -> Result<OpClass, SnapError> {
    let offset = r.offset();
    let tag = r.get_u8()?;
    OpClass::ALL
        .get(tag as usize)
        .copied()
        .ok_or(SnapError::BadTag {
            offset,
            tag,
            what: "op class",
        })
}

fn branch_kind_tag(kind: BranchKind) -> u8 {
    match kind {
        BranchKind::Conditional => 0,
        BranchKind::Unconditional => 1,
        BranchKind::Call => 2,
        BranchKind::Return => 3,
    }
}

fn branch_kind_from_tag(r: &mut SnapReader<'_>) -> Result<BranchKind, SnapError> {
    let offset = r.offset();
    match r.get_u8()? {
        0 => Ok(BranchKind::Conditional),
        1 => Ok(BranchKind::Unconditional),
        2 => Ok(BranchKind::Call),
        3 => Ok(BranchKind::Return),
        tag => Err(SnapError::BadTag {
            offset,
            tag,
            what: "branch kind",
        }),
    }
}

fn decode_reg(r: &mut SnapReader<'_>) -> Result<ArchReg, SnapError> {
    let offset = r.offset();
    let n = r.get_u8()?;
    if n >= crate::reg::NUM_ARCH_REGS {
        return Err(SnapError::BadTag {
            offset,
            tag: n,
            what: "register index",
        });
    }
    Ok(ArchReg::from_index(n))
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}: {}", self.pc, self.op)?;
        if let Some(d) = self.dest {
            write!(f, " {d}")?;
        }
        for s in self.sources() {
            write!(f, " {s}")?;
        }
        if let Some(m) = &self.mem {
            write!(f, " [{:#x}+{}]", m.addr, m.size)?;
        }
        if let Some(b) = &self.branch {
            write!(
                f,
                " ({} -> {:#x})",
                if b.taken { "taken" } else { "not-taken" },
                b.target
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_internally_consistent() {
        let insts = [
            Instruction::alu(0x100, OpClass::IntAlu, ArchReg::int(1), &[ArchReg::int(2)]),
            Instruction::load(
                0x104,
                ArchReg::int(3),
                ArchReg::int(1),
                MemRef::new(0x8000, 8),
            ),
            Instruction::store(
                0x108,
                ArchReg::int(3),
                ArchReg::int(1),
                MemRef::new(0x8008, 4),
            ),
            Instruction::cond_branch(0x10c, ArchReg::int(3), true, 0x100),
            Instruction::jump(0x110, BranchKind::Call, 0x4000),
            Instruction::nop(0x114),
        ];
        for i in &insts {
            i.validate().unwrap();
        }
    }

    #[test]
    fn successor_pc_follows_taken_branches() {
        let taken = Instruction::cond_branch(0x100, ArchReg::int(0), true, 0x80);
        let not_taken = Instruction::cond_branch(0x100, ArchReg::int(0), false, 0x80);
        let plain = Instruction::nop(0x100);
        assert_eq!(taken.successor_pc(), 0x80);
        assert_eq!(not_taken.successor_pc(), 0x104);
        assert_eq!(plain.successor_pc(), 0x104);
    }

    #[test]
    fn memref_overlap() {
        let a = MemRef::new(0x100, 8);
        assert!(a.overlaps(&MemRef::new(0x104, 4)));
        assert!(a.overlaps(&MemRef::new(0xfc, 8)));
        assert!(!a.overlaps(&MemRef::new(0x108, 4)));
        assert!(!a.overlaps(&MemRef::new(0xf8, 8)));
    }

    #[test]
    #[should_panic(expected = "unsupported access size")]
    fn memref_rejects_bad_size() {
        let _ = MemRef::new(0x100, 3);
    }

    #[test]
    fn validate_rejects_inconsistent_records() {
        let mut i = Instruction::nop(0x100);
        i.mem = Some(MemRef::new(0, 4));
        assert!(i.validate().is_err());

        let mut j = Instruction::load(0x104, ArchReg::int(1), ArchReg::int(2), MemRef::new(8, 8));
        j.mem = None;
        assert!(j.validate().is_err());

        let k = Instruction {
            pc: 0x102, // misaligned
            ..Instruction::nop(0x100)
        };
        assert!(k.validate().is_err());
    }

    #[test]
    fn sources_iterates_present_registers_only() {
        let s = Instruction::store(
            0x100,
            ArchReg::int(7),
            ArchReg::int(8),
            MemRef::new(0x10, 8),
        );
        let srcs: Vec<_> = s.sources().collect();
        assert_eq!(srcs, vec![ArchReg::int(7), ArchReg::int(8)]);
        let n = Instruction::nop(0x104);
        assert_eq!(n.sources().count(), 0);
    }

    #[test]
    fn snapshot_codec_round_trips_every_shape() {
        let insts = [
            Instruction::alu(0x100, OpClass::IntAlu, ArchReg::int(1), &[ArchReg::int(2)]),
            Instruction::load(
                0x104,
                ArchReg::fp(3),
                ArchReg::int(1),
                MemRef::new(0x8000, 8),
            ),
            Instruction::store(
                0x108,
                ArchReg::int(3),
                ArchReg::int(1),
                MemRef::new(0x8008, 4),
            ),
            Instruction::cond_branch(0x10c, ArchReg::int(3), true, 0x100),
            Instruction::jump(0x110, BranchKind::Return, 0x4000),
            Instruction::nop(0x114),
        ];
        let mut w = crate::snap::SnapWriter::new();
        for i in &insts {
            i.encode(&mut w);
        }
        let bytes = w.into_bytes();
        let mut r = crate::snap::SnapReader::new(&bytes);
        for i in &insts {
            assert_eq!(&Instruction::decode(&mut r).unwrap(), i);
        }
        r.finish().unwrap();
    }

    #[test]
    fn snapshot_codec_rejects_bad_op_tag() {
        let mut w = crate::snap::SnapWriter::new();
        Instruction::nop(0x100).encode(&mut w);
        let mut bytes = w.into_bytes();
        bytes[8] = 0xFF; // the op-class tag follows the 8-byte pc
        let mut r = crate::snap::SnapReader::new(&bytes);
        assert!(Instruction::decode(&mut r).is_err());
    }

    #[test]
    fn display_mentions_key_fields() {
        let l = Instruction::load(
            0x104,
            ArchReg::int(3),
            ArchReg::int(1),
            MemRef::new(0x8000, 8),
        );
        let s = l.to_string();
        assert!(s.contains("load"));
        assert!(s.contains("0x8000"));
    }
}
