//! # mlpwin-isa
//!
//! Foundation types shared by every crate in the `mlpwin` workspace: the
//! micro-operation vocabulary, architectural registers, the trace-record
//! [`Instruction`] that workload generators emit and the simulator
//! consumes, and deterministic pseudo-random number generators.
//!
//! The simulated machine is a generic RISC-like 4-wide superscalar with an
//! Intel P6-type backend (see `mlpwin-ooo`). The ISA here is deliberately
//! *structural*: an [`Instruction`] carries everything the timing model
//! needs (operand registers, memory address, branch outcome) and nothing it
//! does not (actual data values). This is the standard trace-driven
//! substitution for the paper's execute-driven SimpleScalar/Alpha setup;
//! see `DESIGN.md` §1 for why the substitution preserves the evaluated
//! behaviour.
//!
//! ## Example
//!
//! ```
//! use mlpwin_isa::{Instruction, OpClass, ArchReg};
//!
//! let add = Instruction::alu(0x1000, OpClass::IntAlu, ArchReg::int(1),
//!                            &[ArchReg::int(2), ArchReg::int(3)]);
//! assert_eq!(add.op, OpClass::IntAlu);
//! assert!(add.writes_register());
//! ```

pub mod counters;
pub mod inst;
pub mod op;
pub mod reg;
pub mod rng;
pub mod snap;

pub use counters::Counters;
pub use inst::{BranchInfo, BranchKind, Instruction, MemRef};
pub use op::{FuKind, OpClass};
pub use reg::ArchReg;
pub use rng::{SplitMix64, Xoshiro256StarStar};
pub use snap::{crc32, Snap, SnapError, SnapReader, SnapWriter};

/// Global dynamic-instruction sequence number (program order on the
/// committed path; wrong-path instructions use a disjoint high range).
pub type SeqNum = u64;

/// A simulated clock cycle.
pub type Cycle = u64;

/// A byte address in the simulated memory space.
pub type Addr = u64;
